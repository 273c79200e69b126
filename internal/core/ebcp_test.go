package core

import (
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/cache"
	"ebcp/internal/mem"
	"ebcp/internal/prefetch"
)

func testCtx() *prefetch.Context {
	m := must(mem.New(mem.DefaultConfig()))
	l2 := must(cache.New(cache.Config{Name: "L2", SizeBytes: 2 << 20, Ways: 4, HitLatency: 20}))
	pb := must(cache.NewPrefetchBuffer(1024, 4))
	return prefetch.NewContext(m, pb, l2)
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TableEntries = 1 << 12
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.TableEntries = 0 },
		func(c *Config) { c.TableEntries = 3000 },
		func(c *Config) { c.TableMaxAddrs = 0 },
		func(c *Config) { c.Degree = 0 },
		func(c *Config) { c.EMABEpochs = 2 },
		func(c *Config) { c.VirtualWindow = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestName(t *testing.T) {
	if must(New(smallConfig())).Name() != "EBCP" {
		t.Error("name")
	}
	cfg := smallConfig()
	cfg.Minus = true
	if must(New(cfg)).Name() != "EBCP minus" {
		t.Error("minus name")
	}
}

// epoch feeds one epoch's misses to the prefetcher: the first access is
// the epoch trigger (dependent pointer-chase head), the rest overlap.
func epoch(e *EBCP, ctx *prefetch.Context, now *uint64, inst *uint64, lines ...amo.Line) {
	for i, l := range lines {
		e.OnAccess(prefetch.Access{
			Now:          *now,
			Inst:         *inst,
			Line:         l,
			PC:           0x40,
			Dependent:    i == 0,
			Miss:         true,
			NewEpoch:     i == 0,
			PBTableIndex: cache.NoTableIndex,
		}, ctx)
		*now += 20
		*inst += 5
	}
	*now += 600
	*inst += 300
}

func TestTrainingStoresEpochsPlus2and3(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	now, inst := uint64(0), uint64(0)
	// Epochs: [A,B] [C,D] [E,F] [G,H] [I,J] ...
	epochs := [][]amo.Line{
		{10, 11}, {20, 21}, {30, 31}, {40, 41}, {50, 51}, {60, 61},
	}
	for _, ep := range epochs {
		epoch(e, ctx, &now, &inst, ep...)
	}
	// At the boundary starting epoch j, the entry for epoch j-4's trigger
	// is trained with the misses of epochs j-2 and j-1 (= trigger+2, +3).
	// After feeding epochs 0..5, entry(10) = epochs 2 and 3's misses.
	got := e.Table().Lookup(amo.Line(10))
	want := map[amo.Line]bool{30: true, 31: true, 40: true, 41: true}
	if len(got) != 4 {
		t.Fatalf("entry(10) = %v, want the 4 misses of epochs +2/+3", got)
	}
	for _, l := range got {
		if !want[l] {
			t.Errorf("entry(10) contains unexpected line %v (want epochs +2/+3)", l)
		}
	}
	// Priority to the older epoch: epoch +2's misses must be MRU.
	if got[0] != 30 && got[0] != 31 {
		t.Errorf("MRU of entry(10) = %v, want an epoch+2 miss", got[0])
	}
}

func TestMinusStoresEpochsPlus1and2(t *testing.T) {
	ctx := testCtx()
	cfg := smallConfig()
	cfg.Minus = true
	e := must(New(cfg))
	now, inst := uint64(0), uint64(0)
	for _, ep := range [][]amo.Line{{10}, {20}, {30}, {40}, {50}, {60}} {
		epoch(e, ctx, &now, &inst, ep...)
	}
	got := e.Table().Lookup(amo.Line(10))
	want := map[amo.Line]bool{20: true, 30: true}
	if len(got) != 2 {
		t.Fatalf("minus entry(10) = %v, want epochs +1/+2", got)
	}
	for _, l := range got {
		if !want[l] {
			t.Errorf("minus entry(10) contains %v, want epochs +1/+2", l)
		}
	}
}

func TestLookupIssuesPrefetchesAfterTableRead(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	now, inst := uint64(0), uint64(0)
	seq := [][]amo.Line{{10, 11}, {20}, {30, 31}, {40}, {50}, {60}}
	// Two laps: first trains, second should prefetch.
	for lap := 0; lap < 2; lap++ {
		for _, ep := range seq {
			epoch(e, ctx, &now, &inst, ep...)
		}
	}
	st := e.Stats()
	if st.Matches == 0 {
		t.Fatal("no table matches on the second lap of a recurring sequence")
	}
	if ctx.Stats().Issued == 0 {
		t.Fatal("no prefetches issued")
	}
	// The prefetches carry the table read's latency: ReadyAt must be
	// beyond issue time by at least the unloaded latency.
	if !ctx.Buffer.Contains(amo.Line(30)) && !ctx.Buffer.Contains(amo.Line(40)) &&
		!ctx.Buffer.Contains(amo.Line(50)) && !ctx.Buffer.Contains(amo.Line(60)) {
		t.Error("expected epoch+2/+3 lines in the prefetch buffer")
	}
}

func TestSubsequentMissesInEpochDoNotLookUp(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	now, inst := uint64(0), uint64(0)
	epoch(e, ctx, &now, &inst, 10, 11, 12, 13) // one epoch, 4 misses
	if got := e.Stats().Lookups; got != 1 {
		t.Errorf("lookups = %d, want 1 (only the epoch trigger looks up)", got)
	}
}

func TestVirtualBoundaryOnDependentPBHit(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	now, inst := uint64(0), uint64(0)
	// Train a sequence.
	for lap := 0; lap < 2; lap++ {
		for _, ep := range [][]amo.Line{{10}, {20}, {30}, {40}, {50}, {60}} {
			epoch(e, ctx, &now, &inst, ep...)
		}
	}
	lookups := e.Stats().Lookups
	// A dependent full PB hit (an averted epoch trigger) must start a new
	// virtual epoch and look up the table.
	e.OnAccess(prefetch.Access{
		Now: now, Inst: inst, Line: 30, PC: 0x40,
		Dependent: true, PBHit: true, PBTableIndex: cache.NoTableIndex,
	}, ctx)
	if e.Stats().Lookups != lookups+1 {
		t.Error("dependent PB hit should trigger a virtual-epoch lookup")
	}
	if e.Stats().Boundaries == e.Stats().RealBoundaries {
		t.Error("a virtual boundary should be counted")
	}
}

func TestPBHitTouchesLRUAndWritesTable(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	key := amo.Line(100)
	e.Table().Update(key, []amo.Line{1, 2, 3})
	idx := int64(e.Table().Index(key))
	writes := ctx.Stats().TableWrites
	e.OnAccess(prefetch.Access{
		Now: 1000, Inst: 100, Line: 3, PC: 0x40,
		PBHit: true, PBTableIndex: idx,
	}, ctx)
	if got := e.Table().Lookup(key); got[0] != 3 {
		t.Errorf("used line should be MRU after PB hit: %v", got)
	}
	if ctx.Stats().TableWrites != writes+1 {
		t.Error("LRU update must cost a table write")
	}
	if e.Stats().LRUTouches != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestLRUWritebackDisabled(t *testing.T) {
	ctx := testCtx()
	cfg := smallConfig()
	cfg.LRUWriteback = false
	e := must(New(cfg))
	key := amo.Line(100)
	e.Table().Update(key, []amo.Line{1, 2, 3})
	e.OnAccess(prefetch.Access{
		Now: 1000, Inst: 100, Line: 3, PBHit: true,
		PBTableIndex: int64(e.Table().Index(key)),
	}, ctx)
	if got := e.Table().Lookup(key); got[0] == 3 {
		t.Error("LRU writeback disabled: entry order must not change")
	}
}

func TestDegreeLimitsPrefetches(t *testing.T) {
	ctx := testCtx()
	cfg := smallConfig()
	cfg.Degree = 2
	cfg.TableMaxAddrs = 8
	e := must(New(cfg))
	key := amo.Line(42)
	e.Table().Update(key, []amo.Line{1, 2, 3, 4, 5, 6})
	e.OnAccess(prefetch.Access{
		Now: 0, Inst: 0, Line: key, Dependent: true, Miss: true, NewEpoch: true,
		PBTableIndex: cache.NoTableIndex,
	}, ctx)
	if got := ctx.Stats().Issued; got != 2 {
		t.Errorf("issued %d prefetches, want degree limit 2", got)
	}
}

func TestMergedAndL2HitAccessesIgnored(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	e.OnAccess(prefetch.Access{Line: 1, Miss: true, MissMerged: true, NewEpoch: false}, ctx)
	e.OnAccess(prefetch.Access{Line: 2, L2Hit: true}, ctx)
	if e.Stats().Boundaries != 0 || e.Stats().Lookups != 0 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestResetStats(t *testing.T) {
	ctx := testCtx()
	e := must(New(smallConfig()))
	now, inst := uint64(0), uint64(0)
	epoch(e, ctx, &now, &inst, 10)
	e.ResetStats()
	if e.Stats() != (Stats{}) {
		t.Errorf("stats not cleared: %+v", e.Stats())
	}
}
