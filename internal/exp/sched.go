package exp

import (
	"sync"

	"ebcp/internal/ebcperr"
)

// The parallel scheduler. Experiments run in two phases: a *simulate*
// phase that resolves every planned cell of the run grid through the
// session's store (cache.go) across a worker pool, into a run-local
// table, and a *collect* phase that reads that table in a fixed order
// to build the report. Because simulations are deterministic and the
// store computes each key exactly once (single-flight), the collect
// phase — and hence every Report — is bit-identical regardless of
// worker count or the order in which the pool happened to finish the
// work.

// forEach runs f(0..n-1) across the session's worker pool and waits for
// completion. With one worker (or one item) it degenerates to a plain
// ordered loop. Every item is dispatched even after cancellation: the
// store refuses to start new computations under a cancelled context,
// so late items resolve at once, and no goroutine outlives the call.
func (s *Session) forEach(n int, f func(int)) {
	w := min(s.workers(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// resolve returns one cell's outcome from the session's store,
// simulating it when no session has stored or is computing its key.
// Failed cells are stored too — they are as deterministic as successes,
// and recomputing a failure per request would defeat the store exactly
// when requests are misconfigured. A cell the store refused to start
// under a cancelled context is not stored: it fails with an
// ErrCancelled-classified error and counts once per cell in Failures.
func (s *Session) resolve(r cellReq) *outcome {
	key := s.cellKey(r)
	v, hit, err := s.opts.Cache.Do(s.ctx, key, func() (any, int) {
		o := s.simulate(r)
		s.noteRun(r, o)
		return o, o.cost()
	})
	if err != nil {
		return s.skip(key, ebcperr.Cancelledf("exp: cell %s not simulated: %v", r.label, err))
	}
	o := v.(*outcome)
	s.statMu.Lock()
	if hit {
		s.sharedHits++
	}
	s.noteErrLocked(o.err)
	s.statMu.Unlock()
	return o
}

// skip records a cell that never simulated and returns its failed
// outcome.
func (s *Session) skip(key string, err error) *outcome {
	s.statMu.Lock()
	if s.skipped == nil {
		s.skipped = make(map[string]struct{})
	}
	s.skipped[key] = struct{}{}
	s.noteErrLocked(err)
	s.statMu.Unlock()
	return &outcome{err: err}
}

// noteRun records one executed simulation (failed or not) and emits
// progress.
func (s *Session) noteRun(r cellReq, o *outcome) {
	metric, value := "CPI", 0.0
	if r.tpl.Cores > 0 {
		metric, value = "IPC", o.res.AggregateIPC()
	} else {
		value = o.single().CPI()
	}
	s.statMu.Lock()
	s.runs++
	if o.err != nil {
		s.failures++
	}
	n := s.runs
	s.statMu.Unlock()
	if s.opts.Progress != nil {
		s.progressMu.Lock()
		s.opts.Progress(RunUpdate{Key: r.label, Metric: metric, Value: value, Runs: n, Err: o.err})
		s.progressMu.Unlock()
	}
}

// noteErrLocked remembers the first cell error a consumer observed (nil
// calls are no-ops). The serving layer uses it to classify an all-n/a
// report with a concrete failure instead of a generic one.
func (s *Session) noteErrLocked(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
}
