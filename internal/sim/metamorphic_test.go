package sim

import (
	"reflect"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/core"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// indexPreservingOffset is 3·2^24 lines. Every set and table index in
// the model is a line's low bits below bit 24 — the L1s, the L2, the
// prefetch buffer and the correlation table up to the 8M-entry idealized
// one — so adding it to every address moves no line to another set or
// table entry.
const indexPreservingOffset = 3 << 24 << amo.LineShift

// offsetSource adds a fixed byte offset to every record's address, and to
// the PC of instruction fetches (whose PC is their address).
type offsetSource struct {
	src trace.Source
	off uint64
}

func (o offsetSource) shift(r trace.Record) trace.Record {
	r.Addr += amo.Addr(o.off)
	if r.Kind == trace.IFetch {
		r.PC += amo.PC(o.off)
	}
	return r
}

func (o offsetSource) Next() (trace.Record, bool) {
	r, ok := o.src.Next()
	if !ok {
		return r, false
	}
	return o.shift(r), true
}

func (o offsetSource) ReadBatch(dst []trace.Record) int {
	n := trace.FillBatch(o.src, dst)
	for i := range dst[:n] {
		dst[i] = o.shift(dst[i])
	}
	return n
}

// metamorphicPrefetchers are the prefetchers the relation is checked on:
// none, the tuned EBCP, and the idealized 8M-entry table.
func metamorphicPrefetchers(cores int) map[string]func() prefetch.Prefetcher {
	ebcp := func(cfg core.Config) func() prefetch.Prefetcher {
		cfg.Cores = cores
		return func() prefetch.Prefetcher { return must(core.New(cfg)) }
	}
	ideal := core.DefaultConfig()
	ideal.TableEntries, ideal.TableMaxAddrs, ideal.Degree = 8<<20, 32, 32
	return map[string]func() prefetch.Prefetcher{
		"none":  func() prefetch.Prefetcher { return prefetch.None{} },
		"tuned": ebcp(core.DefaultConfig()),
		"ideal": ebcp(ideal),
	}
}

// TestMetamorphicIndexPreservingOffset checks a relation the model must
// satisfy by construction: shifting every address by an offset that keeps
// each cache set and correlation-table index leaves every counter of the
// Result unchanged, for each workload and prefetcher.
func TestMetamorphicIndexPreservingOffset(t *testing.T) {
	if got := amo.LineOf(indexPreservingOffset); uint64(got)&(8<<20-1) != 0 {
		t.Fatalf("offset %#x moves the 8M-entry table index", uint64(got))
	}
	for _, b := range workload.All() {
		for name, mk := range metamorphicPrefetchers(0) {
			t.Run(b.Name+"/"+name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Core.OnChipCPI = b.OnChipCPI
				cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6
				want := must(Run(must(workload.New(b)), mk(), cfg))
				got := must(Run(offsetSource{must(workload.New(b)), indexPreservingOffset}, mk(), cfg))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("offset run differs:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}

// TestMetamorphicIndexPreservingOffsetCMP is the same relation on a
// 4-lane CMP run, where the lanes share the L2, the prefetch buffer and
// the correlation table.
func TestMetamorphicIndexPreservingOffsetCMP(t *testing.T) {
	const lanes = 4
	for _, b := range workload.All() {
		for name, mk := range metamorphicPrefetchers(lanes) {
			if name == "ideal" {
				continue // the single-core test covers the 8M table
			}
			t.Run(b.Name+"/"+name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Core.OnChipCPI = b.OnChipCPI
				cfg.WarmInsts, cfg.MeasureInsts = 5e5, 1e6
				want := must(RunCMP(cmpSources(b, lanes), mk(), cfg))
				srcs := cmpSources(b, lanes)
				for i, s := range srcs {
					srcs[i] = offsetSource{s, indexPreservingOffset}
				}
				got := must(RunCMP(srcs, mk(), cfg))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("offset run differs:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}
