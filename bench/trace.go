package main

import (
	"fmt"
	"time"

	"ebcp/internal/cache"
	"ebcp/internal/core"
	"ebcp/internal/mem"
	"ebcp/internal/prefetch"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
)

// The traced pass times the simulator's layers from outside, by wrapping
// the two interfaces the simulator calls through: the trace source
// (workload generation and trace batching) and the prefetcher (EBCP
// control, the correlation table and the prefetch traffic it sends to the
// memory model). Everything else in a run — core model, caches, demand
// memory path and the runner or CMP engine — is the remainder, sim.

// timedSource times the batched reads of a trace source.
type timedSource struct {
	src     trace.Source
	ns      int64
	records uint64
}

// Next implements trace.Source; the simulator reads through ReadBatch.
func (t *timedSource) Next() (trace.Record, bool) {
	start := time.Now()
	r, ok := t.src.Next()
	t.ns += int64(time.Since(start))
	if ok {
		t.records++
	}
	return r, ok
}

// ReadBatch implements trace.BatchSource.
func (t *timedSource) ReadBatch(dst []trace.Record) int {
	start := time.Now()
	n := trace.FillBatch(t.src, dst)
	t.ns += int64(time.Since(start))
	t.records += uint64(n)
	return n
}

// timedPrefetcher times every OnAccess call of the prefetcher it wraps and
// can capture a prefix of the access stream for replay.
type timedPrefetcher struct {
	inner prefetch.Prefetcher
	ns    int64
	calls uint64

	// capture, when non-nil, records accesses until it is full; at that
	// point (or at the end of the run) boundaries/lookups hold the inner
	// EBCP's counts over exactly the captured prefix.
	capture                   []prefetch.Access
	captured                  bool
	boundaries, lookups       uint64
	preBoundaries, preLookups uint64
}

// wrapPrefetcher wraps pf for timing. Prefetchers the simulator detects
// by capability — off-chip predictors and issue filters — would lose that
// capability behind the wrapper and simulate differently, so they are
// refused.
func wrapPrefetcher(pf prefetch.Prefetcher, captureLimit int) (*timedPrefetcher, error) {
	if _, ok := pf.(prefetch.OffChipPredictor); ok {
		return nil, fmt.Errorf("prefetcher %s predicts off-chip accesses and cannot be wrapped", pf.Name())
	}
	if _, ok := pf.(prefetch.IssueFilter); ok {
		return nil, fmt.Errorf("prefetcher %s filters issues and cannot be wrapped", pf.Name())
	}
	t := &timedPrefetcher{inner: pf}
	if captureLimit > 0 {
		t.capture = make([]prefetch.Access, 0, captureLimit)
	}
	return t, nil
}

// Name implements prefetch.Prefetcher.
func (t *timedPrefetcher) Name() string { return t.inner.Name() }

// OnAccess implements prefetch.Prefetcher.
func (t *timedPrefetcher) OnAccess(a prefetch.Access, ctx *prefetch.Context) {
	if t.capture != nil && !t.captured {
		t.capture = append(t.capture, a)
	}
	start := time.Now()
	t.inner.OnAccess(a, ctx)
	t.ns += int64(time.Since(start))
	t.calls++
	if t.capture != nil && !t.captured && len(t.capture) == cap(t.capture) {
		t.endCapture()
	}
}

// ResetStats forwards the warm-up reset the simulator sends to prefetchers
// that keep statistics.
func (t *timedPrefetcher) ResetStats() {
	if e, ok := t.inner.(*core.EBCP); ok && !t.captured {
		st := e.Stats()
		t.preBoundaries += st.Boundaries
		t.preLookups += st.Lookups
	}
	if rs, ok := t.inner.(interface{ ResetStats() }); ok {
		rs.ResetStats()
	}
}

// endCapture closes the captured prefix and records the inner EBCP's
// boundary and lookup counts over it.
func (t *timedPrefetcher) endCapture() {
	t.captured = true
	if e, ok := t.inner.(*core.EBCP); ok {
		st := e.Stats()
		t.boundaries = t.preBoundaries + st.Boundaries
		t.lookups = t.preLookups + st.Lookups
	}
}

// tracer hands out the wrappers of one traced simulation and sums what
// they measured.
type tracer struct {
	captureLimit int
	srcs         []*timedSource
	pfs          []*timedPrefetcher
}

func (tr *tracer) source(src trace.Source) trace.Source {
	t := &timedSource{src: src}
	tr.srcs = append(tr.srcs, t)
	return t
}

func (tr *tracer) prefetcher(pf prefetch.Prefetcher) (prefetch.Prefetcher, error) {
	t, err := wrapPrefetcher(pf, tr.captureLimit)
	if err != nil {
		return nil, err
	}
	tr.captureLimit = 0 // one capture per tracer
	tr.pfs = append(tr.pfs, t)
	return t, nil
}

// layerTimes is what the wrappers of one or more simulations measured,
// with the simulations' own total run time.
type layerTimes struct {
	total           time.Duration
	sourceNS, pfNS  int64
	records, access uint64
}

func (tr *tracer) times(total time.Duration) layerTimes {
	lt := layerTimes{total: total}
	for _, s := range tr.srcs {
		lt.sourceNS += s.ns
		lt.records += s.records
	}
	for _, p := range tr.pfs {
		lt.pfNS += p.ns
		lt.access += p.calls
	}
	return lt
}

func (lt *layerTimes) add(o layerTimes) {
	lt.total += o.total
	lt.sourceNS += o.sourceNS
	lt.pfNS += o.pfNS
	lt.records += o.records
	lt.access += o.access
}

// record adds one traced rep's layer metrics. timerNS is the calibrated
// cost per wrapped call that the wrapper's own interval contains; it is
// subtracted from the prefetcher's time, so a prefetcher doing nothing
// reads about zero.
func (lt layerTimes) record(r *result, timerNS float64) {
	total := float64(lt.total.Nanoseconds())
	pf := float64(lt.pfNS) - timerNS*float64(lt.access)
	self := total - float64(lt.sourceNS) - float64(lt.pfNS)
	r.sample("workload.ns_per_record", ratio(float64(lt.sourceNS), float64(lt.records)))
	r.sample("workload.share", ratio(float64(lt.sourceNS), total))
	r.sample("prefetch.ns_per_access", ratio(pf, float64(lt.access)))
	r.sample("prefetch.share", ratio(pf, total))
	r.sample("prefetch.accesses", float64(lt.access))
	r.sample("sim.self_ns_per_record", ratio(self, float64(lt.records)))
	r.sample("sim.share", ratio(self, total))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// captureLimit bounds the access stream one traced pass keeps for replay
// (about 20 MB).
const captureLimit = 1 << 18

// replayReps is how many times each replay runs; the median is reported.
const replayReps = 5

// replay feeds a captured access stream to fresh components, alone:
//   - a wrapped prefetch.None, whose per-call time is the timing
//     wrapper's own cost (prefetch.timer_ns_per_call);
//   - a fresh tuned EBCP tracking lanes threads with a fresh prefetch
//     context (replay.core_ns_per_access);
//   - a bare L2, each line accessed and filled on a miss
//     (replay.cache_ns_per_access).
//
// When the stream came from an EBCP, the replayed EBCP must count the
// same epoch boundaries and table lookups as the in-situ one did over the
// prefix — those depend on the access stream alone — or the check fails.
// It returns the median timer cost per call.
func replay(r *result, src *timedPrefetcher, cfg sim.Config, lanes int) (float64, error) {
	stream := src.capture
	if !src.captured {
		src.endCapture()
	}
	if len(stream) == 0 {
		return 0, fmt.Errorf("traced pass captured no accesses")
	}
	var timer, coreNS, cacheNS []float64
	for i := 0; i < replayReps; i++ {
		none := &timedPrefetcher{inner: prefetch.None{}}
		for _, a := range stream {
			none.OnAccess(a, nil)
		}
		timer = append(timer, float64(none.ns)/float64(len(stream)))

		ecfg := core.DefaultConfig()
		ecfg.Cores = lanes
		e, err := core.New(ecfg)
		if err != nil {
			return 0, err
		}
		ctx, err := newContext(cfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, a := range stream {
			e.OnAccess(a, ctx)
		}
		coreNS = append(coreNS, float64(time.Since(start).Nanoseconds())/float64(len(stream)))
		if _, ok := src.inner.(*core.EBCP); ok && i == 0 {
			var o op
			st := e.Stats()
			o.expect(st.Boundaries == src.boundaries && st.Lookups == src.lookups,
				"replayed EBCP counted %d boundaries/%d lookups, in situ %d/%d",
				st.Boundaries, st.Lookups, src.boundaries, src.lookups)
			r.check(o)
		}

		l2, err := cache.New(cfg.L2)
		if err != nil {
			return 0, err
		}
		start = time.Now()
		for _, a := range stream {
			if !l2.Access(a.Line) {
				l2.Fill(a.Line, false)
			}
		}
		cacheNS = append(cacheNS, float64(time.Since(start).Nanoseconds())/float64(len(stream)))
	}
	r.sample("replay.core_ns_per_access", coreNS...)
	r.sample("replay.cache_ns_per_access", cacheNS...)
	r.sample("prefetch.timer_ns_per_call", timer...)
	return summarize(timer).Median, nil
}

// newContext builds the memory system, prefetch buffer and L2 a fresh
// prefetcher issues into, as the simulator would.
func newContext(cfg sim.Config) (*prefetch.Context, error) {
	m, err := mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	pb, err := cache.NewPrefetchBuffer(cfg.PBEntries, cfg.PBWays)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return prefetch.NewContext(m, pb, l2), nil
}
