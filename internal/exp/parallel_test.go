package exp

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"ebcp/internal/workload"
)

// The scheduler's hard contract: reports are a pure function of the
// experiment definition and the windows — never of the worker count or
// of the order the pool finished the simulations in.

// parallelWindows keeps the determinism tests fast; determinism holds at
// any window length because each cell is itself deterministic.
var parallelWindows = Options{Warm: 2e6, Measure: 1e6}

// TestReportsWorkerCountInvariant runs Table 1 plus two grid
// experiments on a serial session and on an 8-worker session and
// requires byte-identical rendered reports and identical run
// accounting. Fig4 and the frontier shootout also exercise
// cross-experiment memo sharing (fig4 reuses Table 1's baselines;
// frontier reuses fig9 cell keys).
func TestReportsWorkerCountInvariant(t *testing.T) {
	ids := []string{"table1", "fig4", "frontier"}

	opts1 := parallelWindows
	opts1.Workers = 1
	opts8 := parallelWindows
	opts8.Workers = 8
	var progressed int
	opts8.Progress = func(RunUpdate) { progressed++ }

	s1 := NewSession(opts1)
	s8 := NewSession(opts8)
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		r1 := e.Run(s1).String()
		r8 := e.Run(s8).String()
		if r1 != r8 {
			t.Errorf("%s: report differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", id, r1, r8)
		}
	}
	if s1.Runs() != s8.Runs() {
		t.Errorf("Runs() differs: serial %d, parallel %d", s1.Runs(), s8.Runs())
	}
	if s1.SharedHits() != s8.SharedHits() {
		t.Errorf("SharedHits() differs: serial %d, parallel %d", s1.SharedHits(), s8.SharedHits())
	}
	if progressed != s8.Runs() {
		t.Errorf("progress callback fired %d times for %d runs", progressed, s8.Runs())
	}
}

// TestConcurrentExperimentsSingleFlight runs the same experiment from
// two goroutines sharing a session: the single-flight memo must compute
// each cell once and both callers must see identical reports.
func TestConcurrentExperimentsSingleFlight(t *testing.T) {
	opts := parallelWindows
	opts.Workers = 4
	s := NewSession(opts)
	table1 := mustExp(t, "table1")
	reps := make([]*Report, 2)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = table1.Run(s)
		}(i)
	}
	wg.Wait()
	if reps[0].String() != reps[1].String() {
		t.Error("concurrent invocations produced different reports")
	}
	if want := len(workload.All()); s.Runs() != want {
		t.Errorf("Runs() = %d, want %d (one baseline per benchmark, shared across callers)", s.Runs(), want)
	}
}

// TestCancelledSessionReturnsPromptly gives the session an
// already-cancelled context and full-length paper windows: nothing may
// simulate, the (empty) report must come back promptly, and no worker
// goroutine may outlive the call.
func TestCancelledSessionReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := runtime.NumGoroutine()
	s := NewSessionContext(ctx, Options{Warm: 150e6, Measure: 100e6, Workers: 8})

	start := time.Now()
	rep := mustExp(t, "table1").Run(s)
	elapsed := time.Since(start)

	if elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v; a single full-window simulation alone takes longer, so something simulated", elapsed)
	}
	if s.Runs() != 0 {
		t.Errorf("cancelled session executed %d simulations", s.Runs())
	}
	if s.Err() == nil {
		t.Error("Err() should report the cancellation")
	}
	if rep == nil || len(rep.Rows) == 0 {
		t.Fatal("cancelled run should still return the report skeleton")
	}

	// The worker pool joins before Run returns; give the runtime a moment
	// to retire exited goroutines, then require the count to settle back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestCancellationMidSession cancels between two experiments: the first
// report is complete, the second must not add simulations.
func TestCancellationMidSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := parallelWindows
	opts.Workers = 4
	s := NewSessionContext(ctx, opts)

	if rep := mustExp(t, "table1").Run(s); len(rep.Rows) == 0 {
		t.Fatal("pre-cancellation run failed")
	}
	ran := s.Runs()
	if ran == 0 {
		t.Fatal("expected simulations before cancellation")
	}
	cancel()
	rep := mustExp(t, "fig4").Run(s)
	if s.Runs() != ran {
		t.Errorf("post-cancellation Runs() = %d, want %d (no new simulations)", s.Runs(), ran)
	}
	if len(rep.Rows) == 0 {
		t.Error("cancelled run should still return the report skeleton")
	}
}
