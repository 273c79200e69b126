package exp

import (
	"context"
	"sync"
	"testing"
	"time"
)

// The Do(ctx) contract: a cancelled context never starts a computation,
// but still serves stored and in-flight values.

// mustCompiled compiles one canonical spec.
func mustCompiled(t *testing.T, id string) *compiledSpec {
	t.Helper()
	sp, err := CanonicalSpec(id)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compileSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestCacheCancelledRefusesNewKey(t *testing.T) {
	c := NewCache(0, nil)
	ctx := cancelledCtx()
	calls := 0
	v, hit, err := c.Do(ctx, "k", func() (any, int) { calls++; return "v", 1 })
	if err != context.Canceled || v != nil || hit || calls != 0 {
		t.Fatalf("Do = %v, %v, %v with %d computations; want nil, false, context.Canceled, 0", v, hit, err, calls)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("a refused lookup moved the counters: %+v", st)
	}
}

func TestCacheCancelledServesStored(t *testing.T) {
	c := NewCache(0, nil)
	c.Do(context.Background(), "k", func() (any, int) { return "v", 1 })
	v, hit, err := c.Do(cancelledCtx(), "k", func() (any, int) { return "other", 1 })
	if err != nil || !hit || v != "v" {
		t.Fatalf("Do = %v, %v, %v; want the stored v as a hit", v, hit, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1", st)
	}
}

func TestCacheCancelledJoinsInflight(t *testing.T) {
	c := NewCache(0, nil)
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), "k", func() (any, int) {
			close(started)
			<-release
			return "v", 1
		})
	}()
	<-started
	type res struct {
		v   any
		hit bool
		err error
	}
	got := make(chan res, 1)
	go func() {
		v, hit, err := c.Do(cancelledCtx(), "k", func() (any, int) { return "other", 1 })
		got <- res{v, hit, err}
	}()
	for c.Stats().Joins < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if r := <-got; r.err != nil || !r.hit || r.v != "v" {
		t.Fatalf("joiner got %v, %v, %v; want the in-flight v as a hit", r.v, r.hit, r.err)
	}
}

func TestCacheNilClockRecordsNoTimings(t *testing.T) {
	c := NewCache(0, nil)
	c.Do(context.Background(), "k", func() (any, int) { return "v", 1 })
	if n := c.Stats().ComputeUS.Count; n != 0 {
		t.Errorf("compute histogram count = %d, want 0 without a clock", n)
	}
}

// TestCacheOneLookupPerPlannedCell: a spec run looks each distinct
// planned cell up in the store exactly once — the simulate phase
// resolves the plan and the collect phase reads only the run's table —
// so the daemon's hit/miss/join counters count cells, not reads.
func TestCacheOneLookupPerPlannedCell(t *testing.T) {
	store := NewCache(0, nil)
	s := NewSession(Options{Warm: 1e5, Measure: 1e5, Workers: 2, Cache: store})
	lookups := 0
	for _, id := range []string{"table1", "fig4"} {
		c := mustCompiled(t, id)
		c.run(s)
		lookups += len(c.plan(c.benchmarks(s)))
		st := store.Stats()
		if got := int(st.Hits + st.Misses + st.Joins); got != lookups {
			t.Errorf("after %s: %d store lookups, want %d (one per planned cell)", id, got, lookups)
		}
		if s.Runs()+s.SharedHits() != lookups {
			t.Errorf("after %s: runs %d + shared hits %d != %d planned cells", id, s.Runs(), s.SharedHits(), lookups)
		}
	}
}
