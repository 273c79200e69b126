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

// cpiSeries runs workload b with a fresh prefetcher from mk n times at
// 1M warm + 2M measured instructions, applying set(cfg, i) before run i,
// and returns the CPIs in order together with the last run's Result.
func cpiSeries(t *testing.T, b workload.Params, mk func() prefetch.Prefetcher, n int, set func(*Config, int)) ([]float64, Result) {
	t.Helper()
	cpis := make([]float64, n)
	var res Result
	for i := range cpis {
		cfg := DefaultConfig()
		cfg.Core.OnChipCPI = b.OnChipCPI
		cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6
		set(&cfg, i)
		res = must(Run(must(workload.New(b)), mk(), cfg))
		cpis[i] = res.CPI()
	}
	return cpis, res
}

// TestMetamorphicLatencyMonotone: a slower memory never makes a run
// faster. CPI is non-decreasing in the unloaded memory latency, for each
// workload with and without the tuned EBCP.
func TestMetamorphicLatencyMonotone(t *testing.T) {
	lat := []uint64{200, 350, 500, 650, 1000}
	for _, b := range workload.All() {
		for name, mk := range metamorphicPrefetchers(0) {
			if name == "ideal" {
				continue
			}
			t.Run(b.Name+"/"+name, func(t *testing.T) {
				cpis, _ := cpiSeries(t, b, mk, len(lat), func(c *Config, i int) { c.Mem.UnloadedLatency = lat[i] })
				for i := 1; i < len(cpis); i++ {
					if cpis[i] < cpis[i-1] {
						t.Errorf("CPI %.4f at latency %d < %.4f at %d", cpis[i], lat[i], cpis[i-1], lat[i-1])
					}
				}
			})
		}
	}
}

// TestMetamorphicBandwidthMonotone: more interconnect bandwidth never
// makes a run slower. CPI is non-increasing in the read bandwidth (write
// bandwidth at half of it), and an effectively unlimited interconnect
// drops no request.
func TestMetamorphicBandwidthMonotone(t *testing.T) {
	gbps := []float64{4.8, 9.6, 19.2, 1e6}
	for _, b := range workload.All() {
		for name, mk := range metamorphicPrefetchers(0) {
			if name == "ideal" {
				continue
			}
			t.Run(b.Name+"/"+name, func(t *testing.T) {
				cpis, last := cpiSeries(t, b, mk, len(gbps), func(c *Config, i int) {
					c.Mem.ReadGBps, c.Mem.WriteGBps = gbps[i], gbps[i]/2
				})
				for i := 1; i < len(cpis); i++ {
					if cpis[i] > cpis[i-1] {
						t.Errorf("CPI %.4f at %g GB/s > %.4f at %g GB/s", cpis[i], gbps[i], cpis[i-1], gbps[i-1])
					}
				}
				var drops uint64
				for _, c := range last.Mem.PerClass {
					drops += c.ReadDrops + c.WriteDrops
				}
				if drops != 0 {
					t.Errorf("%d requests dropped at %g GB/s", drops, gbps[len(gbps)-1])
				}
			})
		}
	}
}
