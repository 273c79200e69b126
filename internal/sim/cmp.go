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

// Speedup returns this run's aggregate IPC over a baseline run's.
func (r CMPResult) Speedup(baseline CMPResult) float64 {
	b := baseline.AggregateIPC()
	if b == 0 {
		return 0
	}
	return r.AggregateIPC() / b
}

// RunCMP simulates cores running the given traces (one per hardware
// thread) on a shared-L2 machine with a shared prefetcher. It is the
// N-lane case of Runner.Run: records execute in lowest (clock, lane
// index) order, so shared-resource requests arrive in global time order
// and the miss streams interleave the way they would on real hardware.
// Warmup and measurement windows apply per thread; the statistics of
// every lane and of the shared half reset together when the last lane
// warms. It returns an ErrInvalidConfig-classified error, and no
// result, for a bad configuration, an empty source list, or a
// prefetcher that reported an access from a thread it does not track
// (prefetch.Context.RejectThread: it was built for fewer threads than
// there are sources), or an ErrShortTrace-classified
// *CMPShortTraceError — alongside the contaminated partial CMPResult —
// when any lane's trace ends inside its warmup window. All sources are
// read ahead on one reader goroutine (a trace.Ahead), each up to two
// batches past its lane's current batch; they must not be touched
// elsewhere until RunCMP returns, and their positions afterwards are
// unspecified. The reader has exited by the time RunCMP returns.
func RunCMP(sources []trace.Source, pf prefetch.Prefetcher, cfg Config) (CMPResult, error) {
	if len(sources) == 0 {
		return CMPResult{}, ebcperr.Invalidf("sim: RunCMP needs at least one trace source")
	}
	r, err := newRunner(cfg, pf, len(sources))
	if err != nil {
		return CMPResult{}, err
	}
	out := CMPResult{Prefetcher: pf.Name(), PerCore: r.run(sources)}
	if err := r.ctx.Err(); err != nil {
		return CMPResult{}, err
	}
	if out.PerCore[0].WarmupIncomplete {
		return out, &CMPShortTraceError{Partial: out}
	}
	return out, nil
}

// String summarizes the CMP result.
func (r CMPResult) String() string {
	return fmt.Sprintf("%s: %d cores, aggregate IPC %.3f", r.Prefetcher, len(r.PerCore), r.AggregateIPC())
}
