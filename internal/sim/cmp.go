// Chip-multiprocessor mode: the paper's future-work direction (Section 6)
// and the setting its placement argument (Section 3.3.1) is about. N
// hardware threads run their own traces on private cores and L1 caches,
// sharing the L2, the prefetch buffer, the memory interconnect and one
// prefetcher. The prefetcher control sits in front of the core-to-L2
// crossbar and therefore sees each thread's miss stream separately
// (Access.Core); a memory-side engine such as Solihin's instead trains on
// the interleaved stream, which is exactly why it degrades as cores are
// added.
package sim

import (
	"fmt"

	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
)

// CMPShortTraceError reports that at least one lane's trace source ended
// inside its warmup window: the grid-wide statistics reset then ran
// early (or never), so every lane's measurement includes warmup. Partial
// carries the contaminated per-core results. The error matches
// ebcperr.ErrShortTrace under errors.Is.
type CMPShortTraceError struct {
	// Partial is the contaminated result (every per-core entry is
	// flagged WarmupIncomplete).
	Partial CMPResult
}

// Error implements error.
func (e *CMPShortTraceError) Error() string {
	return fmt.Sprintf("sim: a trace ended inside the %d-core CMP warmup window; statistics include warmup", len(e.Partial.PerCore))
}

// Unwrap classifies the error as ebcperr.ErrShortTrace.
func (e *CMPShortTraceError) Unwrap() error { return ebcperr.ErrShortTrace }

// CMPResult carries the per-thread and aggregate statistics of a
// multi-core run.
type CMPResult struct {
	Prefetcher string
	// PerCore results: the Core/L1/miss counters are per-thread; the
	// shared L2/PB/Mem/PF statistics are duplicated into each entry.
	PerCore []Result
}

// Instructions returns aggregate retired instructions.
func (r CMPResult) Instructions() uint64 {
	var n uint64
	for _, c := range r.PerCore {
		n += c.Core.Instructions
	}
	return n
}

// Cycles returns the longest per-thread cycle count (the threads run
// concurrently; wall-clock is the slowest lane).
func (r CMPResult) Cycles() uint64 {
	var max uint64
	for _, c := range r.PerCore {
		if c.Core.Cycles > max {
			max = c.Core.Cycles
		}
	}
	return max
}

// AggregateIPC returns summed instructions per (max) cycle — the
// throughput metric of a CMP.
func (r CMPResult) AggregateIPC() float64 {
	cy := r.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(r.Instructions()) / float64(cy)
}

// Coverage returns the aggregate prefetch coverage across threads.
func (r CMPResult) Coverage() float64 {
	var hits, miss uint64
	for _, c := range r.PerCore {
		hits += c.PBHitsIFetch + c.PBHitsLoad
		miss += c.L2MissesIFetch + c.L2MissesLoad
	}
	if hits+miss == 0 {
		return 0
	}
	return float64(hits) / float64(hits+miss)
}

// Speedup returns this run's aggregate IPC over a baseline run's.
func (r CMPResult) Speedup(baseline CMPResult) float64 {
	b := baseline.AggregateIPC()
	if b == 0 {
		return 0
	}
	return r.AggregateIPC() / b
}

// RunCMP simulates cores running the given traces (one per hardware
// thread) on a shared-L2 machine with a shared prefetcher. Each step
// executes one record of the running lane with the smallest local clock
// (ties to the lowest lane index), so shared-resource requests arrive in
// global time order and the miss streams interleave the way they would
// on real hardware. Warmup and measurement windows apply per thread; the
// statistics of every lane and of the shared half reset together when
// the last lane warms. It returns an ErrInvalidConfig-classified error
// for a bad configuration, an empty source list, or a prefetcher that
// tracks fewer threads than there are sources, or an
// ErrShortTrace-classified *CMPShortTraceError — alongside the
// contaminated partial CMPResult — when any lane's trace ends inside its
// warmup window.
func RunCMP(sources []trace.Source, pf prefetch.Prefetcher, cfg Config) (CMPResult, error) {
	if len(sources) == 0 {
		return CMPResult{}, ebcperr.Invalidf("sim: RunCMP needs at least one trace source")
	}
	// A prefetcher with per-thread state (EBCP's EMABs, Hermes's history
	// registers) sizes it at construction; more lanes than that would
	// index past it or go untrained.
	if tc, ok := pf.(interface{ Cores() int }); ok {
		if n := tc.Cores(); n > 0 && n < len(sources) {
			return CMPResult{}, ebcperr.Invalidf("sim: prefetcher %s tracks %d threads, fewer than the %d CMP lanes",
				pf.Name(), n, len(sources))
		}
	}
	r, err := NewRunner(cfg, pf) // provides the shared half; lane 0 included
	if err != nil {
		return CMPResult{}, err
	}
	lanes := make([]*lane, len(sources))
	lanes[0] = r.lane
	for i := 1; i < len(sources); i++ {
		if lanes[i], err = newLane(i, cfg); err != nil {
			return CMPResult{}, err
		}
	}
	// The lane interleaving is decided record by record by the local
	// clocks, so the loop cannot batch across lanes. Each lane instead
	// reads its own source through trace.FillBatch into a reused buffer
	// and pending is the unread rest of it; each lane still receives
	// exactly its own source's record sequence.
	const batch = 1024
	backing := make([]trace.Record, batch*len(sources))
	pending := make([][]trace.Record, len(sources))

	// clock mirrors each running lane's core clock in one flat slice, so
	// picking the next lane scans contiguous memory; a retired lane's
	// entry is the maximum clock and is never picked.
	const retired = ^uint64(0)
	clock := make([]uint64, len(lanes))
	for i, l := range lanes {
		clock[i] = l.core.Now()
	}
	warmed := make([]bool, len(lanes))
	measureEnd := make([]uint64, len(lanes))
	unwarmed := len(lanes)
	measuring := false
	// shortWarm records that some lane's source ended before it warmed:
	// the grid-wide reset then ran early, so every lane's measurement
	// includes warmup.
	shortWarm := false

	resetAll := func() {
		r.resetStats() // lane 0 and the shared half
		for i, l := range lanes {
			if i > 0 {
				l.resetStats()
			}
			measureEnd[i] = l.core.Insts() + cfg.MeasureInsts
		}
		measuring = true
	}
	markWarm := func(li int) {
		warmed[li] = true
		if unwarmed--; unwarmed == 0 {
			resetAll()
		}
	}
	if cfg.WarmInsts == 0 {
		resetAll()
	}

	for active := len(lanes); active > 0; {
		li := 0
		for i, c := range clock {
			if c < clock[li] {
				li = i
			}
		}
		l := lanes[li]
		if len(pending[li]) == 0 {
			buf := backing[li*batch : (li+1)*batch]
			pending[li] = buf[:trace.FillBatch(sources[li], buf)]
		}
		if len(pending[li]) == 0 {
			clock[li] = retired
			active--
			if !measuring && !warmed[li] {
				// The lane's trace ended inside its warmup window: the grid
				// can never warm fully. Count it as warmed so the remaining
				// lanes proceed to a (flagged) measurement.
				shortWarm = true
				markWarm(li)
			}
			continue
		}
		r.step(l, pending[li][0])
		pending[li] = pending[li][1:]
		clock[li] = l.core.Now()
		switch {
		case measuring:
			if l.core.Insts() >= measureEnd[li] {
				clock[li] = retired
				active--
			}
		case !warmed[li] && l.core.Insts() >= cfg.WarmInsts:
			markWarm(li)
		}
	}

	out := CMPResult{Prefetcher: pf.Name()}
	for _, l := range lanes {
		l.core.CloseEpoch()
		res := r.laneResult(l)
		// Statistics reset only once every lane warms, so one short trace
		// pollutes every lane's measurement window.
		res.WarmupIncomplete = shortWarm
		out.PerCore = append(out.PerCore, res)
	}
	if shortWarm {
		return out, &CMPShortTraceError{Partial: out}
	}
	return out, nil
}

// String summarizes the CMP result.
func (r CMPResult) String() string {
	return fmt.Sprintf("%s: %d cores, aggregate IPC %.3f, coverage %.2f",
		r.Prefetcher, len(r.PerCore), r.AggregateIPC(), r.Coverage())
}
