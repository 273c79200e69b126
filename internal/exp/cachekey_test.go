package exp

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ebcp/internal/ebcperr"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// The canonicalization contract (cache.go): every Options field is
// either part of the shared-cache key — via the session seed or via the
// per-cell workload parameters — or provably ignored. These sets drive
// both the completeness check and the behavioural tests below; a new
// Options field fails TestCacheKeyFieldClassification until it is
// classified here AND exercised in the matching behavioural test.
var (
	seedFields    = map[string]bool{"Warm": true, "Measure": true, "MaxInsts": true}
	perCellFields = map[string]bool{"Benchmarks": true}
	ignoredFields = map[string]bool{"Workers": true, "Progress": true, "Cache": true}
)

func TestCacheKeyFieldClassification(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		n := 0
		for _, set := range []map[string]bool{seedFields, perCellFields, ignoredFields} {
			if set[name] {
				n++
			}
		}
		if n != 1 {
			t.Errorf("Options.%s is in %d classification sets, want exactly 1 — decide whether it affects cell results and add it to the cache key (and these tests)", name, n)
		}
	}
	total := len(seedFields) + len(perCellFields) + len(ignoredFields)
	if total != typ.NumField() {
		t.Errorf("classification names %d fields, Options has %d — remove stale entries", total, typ.NumField())
	}
}

// testCell is the cell the key tests mutate: Figure 4's idealized EBCP
// at degree 8 on a 1K-entry prefetch buffer.
func testCell() spec.CellV1 {
	return spec.CellV1{
		Key:        "ebcp-ideal/{bench}/d8",
		Prefetcher: spec.PrefetcherRefV1{Name: "ebcp", Params: json.RawMessage(`{"table_entries": 8388608, "degree": 8}`)},
		Baseline:   "base",
		Sim:        &spec.SimTweaksV1{PBEntries: 1024},
	}
}

// keyOf computes one cell key.
func keyOf(o Options) string {
	return sealCellKey(o.cacheSeed(), cellIdentity(testCell()), workload.Database())
}

// cellKeyOf computes the key of a cell under fixed session options.
func cellKeyOf(c spec.CellV1) string {
	return sealCellKey(Options{Warm: 1e6, Measure: 1e6}.cacheSeed(), cellIdentity(c), workload.Database())
}

// TestCacheKeySemanticFieldsChangeKey: every seed-classified field,
// when changed, must move the key.
func TestCacheKeySemanticFieldsChangeKey(t *testing.T) {
	base := Options{Warm: 1e6, Measure: 1e6}
	mutations := map[string]Options{
		"Warm":     {Warm: 2e6, Measure: 1e6},
		"Measure":  {Warm: 1e6, Measure: 2e6},
		"MaxInsts": {Warm: 1e6, Measure: 1e6, MaxInsts: 5e5},
	}
	for name := range seedFields {
		if _, ok := mutations[name]; !ok {
			t.Errorf("seed field %s has no mutation case — add one", name)
		}
	}
	baseKey := keyOf(base)
	for name, mutated := range mutations {
		if keyOf(mutated) == baseKey {
			t.Errorf("changing Options.%s did not change the cell key", name)
		}
	}
}

// TestCacheKeyIgnoredFieldsKeepKey: execution knobs must not fragment
// the shared cache.
func TestCacheKeyIgnoredFieldsKeepKey(t *testing.T) {
	base := Options{Warm: 1e6, Measure: 1e6}
	mutations := map[string]Options{
		"Workers":  {Warm: 1e6, Measure: 1e6, Workers: 7},
		"Progress": {Warm: 1e6, Measure: 1e6, Progress: func(RunUpdate) {}},
		"Cache":    {Warm: 1e6, Measure: 1e6, Cache: NewCache(0, nil)},
	}
	for name := range ignoredFields {
		if _, ok := mutations[name]; !ok {
			t.Errorf("ignored field %s has no mutation case — add one", name)
		}
	}
	baseKey := keyOf(base)
	for name, mutated := range mutations {
		if keyOf(mutated) != baseKey {
			t.Errorf("Options.%s is documented as ignored but changed the cell key", name)
		}
	}
}

// TestCacheKeyPerCellIdentity: the Benchmarks field reaches the key
// through each cell's own parameter struct.
func TestCacheKeyPerCellIdentity(t *testing.T) {
	seed, id := Options{Warm: 1e6, Measure: 1e6}.cacheSeed(), cellIdentity(testCell())
	db, web := workload.Database(), workload.TPCW()
	k1 := sealCellKey(seed, id, db)
	if sealCellKey(seed, id, web) == k1 {
		t.Error("different workload params share a key")
	}
	// A scaled variant is a different workload, hence a different key.
	scaled, err := workload.Scaled(db, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sealCellKey(seed, id, scaled) == k1 {
		t.Error("scaled workload shares the full-size key")
	}
}

// TestCacheKeyCellContent: everything a cell template says about what
// it simulates moves the key; what only names or relates the cell does
// not, and neither does the layout of its JSON blocks.
func TestCacheKeyCellContent(t *testing.T) {
	base := cellKeyOf(testCell())
	moves := map[string]func(*spec.CellV1){
		"prefetcher name": func(c *spec.CellV1) { c.Prefetcher.Name = "ghb-large" },
		"params":          func(c *spec.CellV1) { c.Prefetcher.Params = json.RawMessage(`{"table_entries": 8388608, "degree": 2}`) },
		"no params":       func(c *spec.CellV1) { c.Prefetcher.Params = nil },
		"filter {}":       func(c *spec.CellV1) { c.Prefetcher.Filter = json.RawMessage(`{}`) },
		"filter block":    func(c *spec.CellV1) { c.Prefetcher.Filter = json.RawMessage(`{"threshold_pct": 0}`) },
		"cores":           func(c *spec.CellV1) { c.Cores = 1 },
		"pb_entries":      func(c *spec.CellV1) { c.Sim.PBEntries = 512 },
		"read_gbps":       func(c *spec.CellV1) { c.Sim.ReadGBps = 3.2 },
		"write_gbps":      func(c *spec.CellV1) { c.Sim.WriteGBps = 3.2 },
		"no sim tweaks":   func(c *spec.CellV1) { c.Sim = nil },
	}
	for name, mutate := range moves {
		c := testCell()
		mutate(&c)
		if cellKeyOf(c) == base {
			t.Errorf("changing the cell's %s did not change its key", name)
		}
	}
	keeps := map[string]func(*spec.CellV1){
		"label":    func(c *spec.CellV1) { c.Key = "fig6/{bench}/8388608" },
		"baseline": func(c *spec.CellV1) { c.Baseline = "" },
		"params layout": func(c *spec.CellV1) {
			c.Prefetcher.Params = json.RawMessage("{\n  \"table_entries\":8388608,\n  \"degree\": 8\n}")
		},
	}
	for name, mutate := range keeps {
		c := testCell()
		mutate(&c)
		if cellKeyOf(c) != base {
			t.Errorf("changing the cell's %s changed its key", name)
		}
	}
	// Absent blocks and their empty spellings decide the same run.
	bare := spec.CellV1{Key: "base/{bench}", Prefetcher: spec.PrefetcherRefV1{Name: "none"}}
	spelled := bare
	spelled.Prefetcher.Params = json.RawMessage(`{ }`)
	spelled.Sim = &spec.SimTweaksV1{}
	if cellKeyOf(spelled) != cellKeyOf(bare) {
		t.Error("an empty params block or empty sim tweaks changed the key of a bare cell")
	}
}

// TestCacheKeyDefaultsCanonicalize: zero windows and the explicit paper
// defaults are the same semantics, so they must digest identically.
func TestCacheKeyDefaultsCanonicalize(t *testing.T) {
	if keyOf(Options{}) != keyOf(Options{Warm: 150_000_000, Measure: 100_000_000}) {
		t.Error("implicit and explicit default windows produce different keys")
	}
}

// TestSharedCacheReplaysAcrossSessions: a second session over the same
// options simulates nothing, counts its cells as shared hits, and
// renders the byte-identical report.
func TestSharedCacheReplaysAcrossSessions(t *testing.T) {
	cache := NewCache(0, nil)
	opts := Options{Warm: 2e5, Measure: 1e5, Workers: 1, Cache: cache}
	benches := workload.All()
	for i := range benches {
		b, err := workload.Scaled(benches[i], 0.05)
		if err != nil {
			t.Fatal(err)
		}
		opts.Benchmarks = append(opts.Benchmarks, b)
	}
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}

	s1 := NewSession(opts)
	rep1 := e.Run(s1)
	if s1.Runs() == 0 || s1.SharedHits() != 0 {
		t.Fatalf("first session: runs=%d shared=%d, want runs>0 shared=0", s1.Runs(), s1.SharedHits())
	}
	if st := cache.Stats(); st.Entries != s1.Runs() || st.Misses != uint64(s1.Runs()) || st.Hits != 0 {
		t.Errorf("cache stats %+v after %d runs, want entries=misses=runs, hits=0", st, s1.Runs())
	}

	s2 := NewSession(opts)
	rep2 := e.Run(s2)
	if s2.Runs() != 0 {
		t.Errorf("second session simulated %d cells, want 0", s2.Runs())
	}
	if s2.SharedHits() != s1.Runs() {
		t.Errorf("second session shared hits = %d, want %d", s2.SharedHits(), s1.Runs())
	}
	if rep2.String() != rep1.String() {
		t.Error("cached replay rendered a different report")
	}
	if rep2.NACells() != 0 {
		t.Errorf("replayed report has %d n/a cells", rep2.NACells())
	}
	if st := cache.Stats(); st.Hits != uint64(s1.Runs()) || st.Entries != s1.Runs() {
		t.Errorf("cache stats %+v after the replay, want hits=entries=%d", st, s1.Runs())
	}
}

// TestSharedCacheReplaysFailures: failed cells are deterministic too —
// the second session must see the same classified error without
// re-simulating.
func TestSharedCacheReplaysFailures(t *testing.T) {
	cache := NewCache(0, nil)
	opts := Options{Warm: 1e6, Measure: 1e6, MaxInsts: 10_000, Workers: 1, Cache: cache}
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}

	s1 := NewSession(opts)
	rep1 := e.Run(s1)
	if rep1.NACells() == 0 || !errors.Is(s1.FirstError(), ebcperr.ErrShortTrace) {
		t.Fatalf("short-trace setup did not fail cells: na=%d err=%v", rep1.NACells(), s1.FirstError())
	}

	s2 := NewSession(opts)
	rep2 := e.Run(s2)
	if s2.Runs() != 0 {
		t.Errorf("failure replay simulated %d cells, want 0", s2.Runs())
	}
	if !errors.Is(s2.FirstError(), ebcperr.ErrShortTrace) {
		t.Errorf("replayed session first error = %v, want ErrShortTrace class", s2.FirstError())
	}
	if rep2.NACells() != rep1.NACells() {
		t.Errorf("replayed report has %d n/a cells, first had %d", rep2.NACells(), rep1.NACells())
	}
	if st := cache.Stats(); st.Hits != uint64(s1.Runs()) || st.Entries != s1.Runs() {
		t.Errorf("cache stats %+v, want the failed cells stored once and replayed once (%d)", st, s1.Runs())
	}
}
