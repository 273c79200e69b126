package exp

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"ebcp/internal/spec"
	"ebcp/internal/workload"
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

// scaledBenches returns the named paper workloads at a twentieth of
// their working sets, for store tests that need real cells quickly.
func scaledBenches(t *testing.T, names ...string) []workload.Params {
	t.Helper()
	var out []workload.Params
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if b, err = workload.Scaled(b, 0.05); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestCacheKeysCellsByContentNotLabel: a spec that reuses fig9's EBCP
// label for a different contender setting gets its own simulation, so
// it reports the same value after fig9 in one session as it does alone.
func TestCacheKeysCellsByContentNotLabel(t *testing.T) {
	opts := Options{Warm: 4e6, Measure: 2e6, Workers: 2, Benchmarks: scaledBenches(t, "SPECjbb2005")}
	col := opts.Benchmarks[0].Name
	fig9, err := CanonicalSpec("fig9")
	if err != nil {
		t.Fatal(err)
	}
	cell := fig9.Cells["ebcp"]
	cell.Prefetcher.Params = json.RawMessage(`{"degree": 2, "table_max_addrs": 6}`)
	variant, err := FromSpec(spec.SpecV1{
		Schema:  spec.SchemaV1,
		ID:      "variant",
		Title:   "fig9's EBCP label at degree 2",
		Kind:    "sim",
		Report:  spec.ReportMetaV1{Title: "EBCP at degree 2"},
		Columns: spec.ColumnsV1{Benchmarks: true},
		Cells:   map[string]spec.CellV1{"base": fig9.Cells["base"], "ebcp": cell},
		Rows:    []spec.RowGroupV1{{Rows: []spec.RowV1{{Label: "EBCP", Metric: "improvement_pct", Cells: []string{"ebcp"}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alone, _ := variant.Run(NewSession(opts)).Value("EBCP", col)

	s := NewSession(opts)
	atSix, _ := mustExp(t, "fig9").Run(s).Value("EBCP", col)
	after, _ := variant.Run(s).Value("EBCP", col)
	if alone == atSix {
		t.Fatalf("degree 2 and degree 6 both read %.4f; the test cannot tell the cells apart", alone)
	}
	if after != alone {
		t.Errorf("after fig9 the variant reads %.4f, alone %.4f (fig9's cell: %.4f)", after, alone, atSix)
	}
}

// TestCacheSharesEqualCellsAcrossSpecs: fig6's 8M-entry point and its
// baseline are fig4's degree-8 point and baseline under other labels,
// so after fig4 a session simulates only fig6's four other sizes.
func TestCacheSharesEqualCellsAcrossSpecs(t *testing.T) {
	opts := Options{Warm: 1e5, Measure: 1e5, Workers: 2, Benchmarks: scaledBenches(t, "Database", "SPECjbb2005")}
	s := NewSession(opts)
	mustExp(t, "fig4").Run(s)
	before := s.Runs()
	fig6 := mustExp(t, "fig6").Run(s)
	if got, want := s.Runs()-before, 4*len(opts.Benchmarks); got != want {
		t.Errorf("fig6 after fig4 ran %d simulations, want %d (4 per benchmark)", got, want)
	}
	if fig6.NACells() != 0 {
		t.Errorf("fig6 has %d n/a cells", fig6.NACells())
	}
	alone := mustExp(t, "fig6").Run(NewSession(opts))
	if alone.String() != fig6.String() {
		t.Error("fig6 after fig4 renders differently from fig6 alone")
	}
}
