package corrtab

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"ebcp/internal/amo"
)

func table(entries, maxAddrs int) *Table {
	return must(New(Config{Entries: entries, MaxAddrs: maxAddrs}))
}

func lines(vs ...uint64) []amo.Line {
	out := make([]amo.Line, len(vs))
	for i, v := range vs {
		out[i] = amo.Line(v)
	}
	return out
}

func TestValidate(t *testing.T) {
	bad := []Config{{}, {Entries: 3, MaxAddrs: 8}, {Entries: 1024, MaxAddrs: 0}, {Entries: -4, MaxAddrs: 8}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
	if err := (Config{Entries: 1 << 20, MaxAddrs: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestUpdateLookup(t *testing.T) {
	tb := table(1024, 8)
	key := amo.Line(100)
	tb.Update(key, lines(1, 2, 3))
	got := tb.Lookup(key)
	if len(got) != 3 {
		t.Fatalf("Lookup returned %v", got)
	}
	// addrs[0] had highest priority: it must be MRU (first).
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", got)
	}
	st := tb.Stats()
	if st.Lookups != 1 || st.Hits != 1 || st.Allocations != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLookupMissOnEmptyAndWrongTag(t *testing.T) {
	tb := table(16, 8)
	if tb.Lookup(amo.Line(5)) != nil {
		t.Error("empty table lookup should miss")
	}
	tb.Update(amo.Line(5), lines(1))
	// Line 21 maps to the same index (21 % 16 == 5) but has a different tag.
	if tb.Lookup(amo.Line(21)) != nil {
		t.Error("conflicting key must not hit")
	}
	if tb.Stats().HitRate() != 0 {
		t.Errorf("hit rate = %v", tb.Stats().HitRate())
	}
}

func TestConflictOverwrite(t *testing.T) {
	tb := table(16, 8)
	tb.Update(amo.Line(5), lines(1))
	tb.Update(amo.Line(21), lines(2)) // same index, different tag
	if tb.Lookup(amo.Line(5)) != nil {
		t.Error("old tag should be displaced")
	}
	got := tb.Lookup(amo.Line(21))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("new entry = %v", got)
	}
	if tb.Stats().ConflictEvictions != 1 {
		t.Errorf("stats = %+v", tb.Stats())
	}
	if tb.Occupancy() != 1 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
}

func TestLRUMergeAndEviction(t *testing.T) {
	tb := table(1024, 4)
	key := amo.Line(7)
	tb.Update(key, lines(1, 2, 3, 4))
	// Update with one existing (3) and one new (9): 3 promotes, 9 inserts,
	// LRU (4) evicts because the entry is full.
	tb.Update(key, lines(3, 9))
	got := tb.Lookup(key)
	want := lines(3, 9, 1, 2)
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestUpdateTruncatesToMaxAddrs(t *testing.T) {
	tb := table(64, 2)
	tb.Update(amo.Line(1), lines(10, 11, 12, 13))
	got := tb.Lookup(amo.Line(1))
	if len(got) != 2 {
		t.Fatalf("entry holds %d addrs, want 2", len(got))
	}
	// Priority order preserved: the first two.
	if got[0] != 10 || got[1] != 11 {
		t.Errorf("got %v, want [10 11]", got)
	}
}

func TestTouchPromotes(t *testing.T) {
	tb := table(256, 4)
	key := amo.Line(9)
	tb.Update(key, lines(1, 2, 3, 4))
	tb.Touch(tb.Index(key), amo.Line(4))
	got := tb.Lookup(key)
	if got[0] != 4 {
		t.Errorf("touched address should be MRU: %v", got)
	}
	if tb.Stats().Touches != 1 {
		t.Errorf("stats = %+v", tb.Stats())
	}
	// Touching an absent address or empty index is harmless.
	tb.Touch(tb.Index(key), amo.Line(99))
	tb.Touch(12345, amo.Line(1))
	if tb.Stats().Touches != 1 {
		t.Errorf("no-op touches must not count: %+v", tb.Stats())
	}
}

func TestReclaim(t *testing.T) {
	tb := table(64, 4)
	tb.Update(amo.Line(1), lines(5))
	tb.Reclaim()
	if tb.Lookup(amo.Line(1)) != nil {
		t.Error("reclaimed table should be empty")
	}
	if tb.Occupancy() != 0 {
		t.Errorf("occupancy = %d", tb.Occupancy())
	}
}

// TestReclaimGenerationWrap forces the generation stamp to wrap: every
// record written before the wrap must read as dead afterwards, and the
// recycled slots must work as fresh ones.
func TestReclaimGenerationWrap(t *testing.T) {
	tb := table(64, 4)
	tb.gen = ^uint32(0)
	tb.Update(amo.Line(1), lines(5, 6))
	tb.Update(amo.Line(2), lines(7))
	tb.Reclaim()
	if tb.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", tb.gen)
	}
	if tb.Lookup(amo.Line(1)) != nil || tb.Lookup(amo.Line(2)) != nil || len(tb.Rows()) != 0 {
		t.Fatal("entries survived a wrapped reclaim")
	}
	tb.Update(amo.Line(1), lines(9))
	if got := tb.Lookup(amo.Line(1)); len(got) != 1 || got[0] != 9 {
		t.Errorf("Lookup after wrap = %v, want [9]", got)
	}
	if tb.Occupancy() != 1 || tb.Stats().ConflictEvictions != 0 {
		t.Errorf("occupancy %d, conflicts %d; want 1, 0", tb.Occupancy(), tb.Stats().ConflictEvictions)
	}
}

// TestLargestTable runs the largest accepted table (2^32 entries, still
// sparse) with keys whose indices and tags sit at the top of the range,
// where the packed index words use all 32 bits of each half.
func TestLargestTable(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a 2^32-entry table needs a 64-bit int")
	}
	largest := maxEntries
	tb := table(int(largest), 8)
	keys := lines(^uint64(0), 1<<32-1, 1<<63|(1<<32-1), 0, 1<<32, 1<<62|1)
	for i, k := range keys {
		tb.Update(k, lines(uint64(i)+100))
	}
	// Keys sharing an index conflict: the last writer of each index wins.
	want := map[uint64]amo.Line{}
	for _, k := range keys {
		want[tb.Index(k)] = k
	}
	for i, k := range keys {
		got := tb.Lookup(k)
		if want[tb.Index(k)] != k {
			if got != nil {
				t.Errorf("Lookup(%v) = %v, want a miss (overwritten)", k, got)
			}
			continue
		}
		if len(got) != 1 || got[0] != amo.Line(uint64(i)+100) {
			t.Errorf("Lookup(%v) = %v, want [%d]", k, got, i+100)
		}
	}
	if tb.Occupancy() != len(want) {
		t.Errorf("occupancy %d, want %d", tb.Occupancy(), len(want))
	}
}

func TestEntryNeverExceedsMaxAddrsProperty(t *testing.T) {
	f := func(keys []uint16, addrs []uint16) bool {
		tb := table(256, 6)
		for i, k := range keys {
			var batch []amo.Line
			for j := 0; j < 3 && i+j < len(addrs); j++ {
				batch = append(batch, amo.Line(addrs[i+j]))
			}
			tb.Update(amo.Line(k), batch)
			if got := tb.Lookup(amo.Line(k)); len(got) > 6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupAfterUpdateAlwaysHitsProperty(t *testing.T) {
	// Property: immediately after Update(key, ...), Lookup(key) hits and
	// contains the highest-priority address, as long as addrs is non-empty.
	f := func(key uint32, a1, a2 uint32) bool {
		tb := table(1<<12, 8)
		tb.Update(amo.Line(key), lines(uint64(a1), uint64(a2)))
		got := tb.Lookup(amo.Line(key))
		return len(got) >= 1 && got[0] == amo.Line(a1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDuplicateAddressesInUpdate(t *testing.T) {
	tb := table(64, 4)
	tb.Update(amo.Line(1), lines(7, 7, 7))
	got := tb.Lookup(amo.Line(1))
	n := 0
	for _, a := range got {
		if a == 7 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("duplicate addresses must collapse: %v", got)
	}
}

func TestIndexMasks(t *testing.T) {
	tb := table(1024, 8)
	for _, k := range []amo.Line{0, 1023, 1024, 1 << 30} {
		if idx := tb.Index(k); idx >= 1024 {
			t.Errorf("Index(%v) = %d out of range", k, idx)
		}
	}
	if tb.Index(amo.Line(1024)) != tb.Index(amo.Line(0)) {
		t.Error("direct mapping should wrap at table size")
	}
}

// TestMatchesReferenceModel drives the table and an obviously-correct
// reference implementation with the same random operation stream and
// requires identical observable behaviour (entry contents in MRU order).
func TestMatchesReferenceModel(t *testing.T) {
	const entries, maxAddrs = 64, 4
	tb := table(entries, maxAddrs)

	type refEntry struct {
		tag   uint64
		addrs []amo.Line // MRU first
	}
	ref := make(map[uint64]*refEntry)
	refPromote := func(e *refEntry, a amo.Line) {
		for i, x := range e.addrs {
			if x == a {
				e.addrs = append(e.addrs[:i], e.addrs[i+1:]...)
				break
			}
		}
		e.addrs = append([]amo.Line{a}, e.addrs...)
		if len(e.addrs) > maxAddrs {
			e.addrs = e.addrs[:maxAddrs]
		}
	}
	refUpdate := func(key amo.Line, addrs []amo.Line) {
		idx := uint64(key) % entries
		e := ref[idx]
		if e == nil || e.tag != uint64(key) {
			e = &refEntry{tag: uint64(key)}
			ref[idx] = e
			if len(addrs) > maxAddrs {
				addrs = addrs[:maxAddrs]
			}
		}
		for i := len(addrs) - 1; i >= 0; i-- {
			refPromote(e, addrs[i])
		}
	}
	refLookup := func(key amo.Line) []amo.Line {
		e := ref[uint64(key)%entries]
		if e == nil || e.tag != uint64(key) {
			return nil
		}
		return e.addrs
	}
	refTouch := func(idx uint64, a amo.Line) {
		e := ref[idx%entries]
		if e == nil {
			return
		}
		for _, x := range e.addrs {
			if x == a {
				refPromote(e, a)
				return
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50000; i++ {
		key := amo.Line(rng.Intn(256))
		switch rng.Intn(3) {
		case 0:
			n := 1 + rng.Intn(5)
			addrs := make([]amo.Line, n)
			for j := range addrs {
				addrs[j] = amo.Line(rng.Intn(64))
			}
			tb.Update(key, addrs)
			refUpdate(key, addrs)
		case 1:
			got := tb.Lookup(key)
			want := refLookup(key)
			if len(got) != len(want) {
				t.Fatalf("step %d: Lookup(%v) = %v, ref %v", i, key, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("step %d: Lookup(%v) order = %v, ref %v", i, key, got, want)
				}
			}
		case 2:
			a := amo.Line(rng.Intn(64))
			tb.Touch(tb.Index(key), a)
			refTouch(tb.Index(key), a)
		}
	}
}

// legacyTable is the pre-flat-storage implementation of the correlation
// table (map of pointer-chased entries with per-entry slices), kept as the
// behavioural oracle for the paged layout: TestDifferentialLegacyVsPaged
// drives both with identical fuzzed operation sequences and requires
// identical addresses, stats and occupancy at every step.
type legacyTable struct {
	cfg     Config
	mask    uint64
	entries map[uint64]*legacyEntry
	stats   Stats
}

type legacyEntry struct {
	tag   uint64
	addrs []amo.Line // MRU first
}

func newLegacy(cfg Config) *legacyTable {
	return &legacyTable{
		cfg:     cfg,
		mask:    uint64(cfg.Entries - 1),
		entries: make(map[uint64]*legacyEntry),
	}
}

func (t *legacyTable) Lookup(key amo.Line) []amo.Line {
	t.stats.Lookups++
	e := t.entries[uint64(key)&t.mask]
	if e == nil || e.tag != uint64(key) {
		return nil
	}
	t.stats.Hits++
	return e.addrs
}

func (t *legacyTable) Update(key amo.Line, addrs []amo.Line) {
	t.stats.Updates++
	idx := uint64(key) & t.mask
	e := t.entries[idx]
	if e == nil || e.tag != uint64(key) {
		if e != nil {
			t.stats.ConflictEvictions++
		}
		t.stats.Allocations++
		e = &legacyEntry{tag: uint64(key), addrs: make([]amo.Line, 0, t.cfg.MaxAddrs)}
		t.entries[idx] = e
		if len(addrs) > t.cfg.MaxAddrs {
			addrs = addrs[:t.cfg.MaxAddrs]
		}
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		t.promote(e, addrs[i])
	}
}

func (t *legacyTable) promote(e *legacyEntry, a amo.Line) {
	for i, x := range e.addrs {
		if x == a {
			copy(e.addrs[1:i+1], e.addrs[:i])
			e.addrs[0] = a
			return
		}
	}
	if len(e.addrs) < t.cfg.MaxAddrs {
		e.addrs = append(e.addrs, 0)
	}
	copy(e.addrs[1:], e.addrs)
	e.addrs[0] = a
}

func (t *legacyTable) Touch(index uint64, used amo.Line) {
	e := t.entries[index&t.mask]
	if e == nil {
		return
	}
	for i, x := range e.addrs {
		if x == used {
			copy(e.addrs[1:i+1], e.addrs[:i])
			e.addrs[0] = used
			t.stats.Touches++
			return
		}
	}
}

func (t *legacyTable) Reclaim()       { t.entries = make(map[uint64]*legacyEntry) }
func (t *legacyTable) Occupancy() int { return len(t.entries) }

// TestDifferentialLegacyVsPaged fuzzes update/lookup/touch/reclaim
// sequences into the paged table and the legacy map-backed layout and
// asserts identical observable behaviour: returned address lists, the
// full stats struct, and occupancy.
func TestDifferentialLegacyVsPaged(t *testing.T) {
	configs := []Config{
		{Entries: 64, MaxAddrs: 4},
		{Entries: 1024, MaxAddrs: 8},
		{Entries: 1 << 20, MaxAddrs: 32}, // sparse: touched indices ≪ entries
	}
	for _, cfg := range configs {
		cfg := cfg
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed * 997))
			tb := must(New(cfg))
			ref := newLegacy(cfg)
			// Key space wider than the table forces tag conflicts; a
			// handful of hot keys forces promote/merge paths.
			keyFor := func() amo.Line {
				if rng.Intn(4) == 0 {
					return amo.Line(rng.Intn(16))
				}
				return amo.Line(rng.Uint64() % uint64(4*cfg.Entries))
			}
			for i := 0; i < 20000; i++ {
				switch op := rng.Intn(10); {
				case op < 4: // update
					key := keyFor()
					addrs := make([]amo.Line, rng.Intn(cfg.MaxAddrs+3))
					for j := range addrs {
						addrs[j] = amo.Line(rng.Intn(128))
					}
					tb.Update(key, addrs)
					ref.Update(key, addrs)
				case op < 8: // lookup
					key := keyFor()
					got, want := tb.Lookup(key), ref.Lookup(key)
					if len(got) != len(want) {
						t.Fatalf("cfg %+v seed %d step %d: Lookup(%v) = %v, legacy %v", cfg, seed, i, key, got, want)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("cfg %+v seed %d step %d: Lookup(%v) = %v, legacy %v", cfg, seed, i, key, got, want)
						}
					}
				case op < 9: // touch
					key, a := keyFor(), amo.Line(rng.Intn(128))
					tb.Touch(tb.Index(key), a)
					ref.Touch(tb.Index(key), a)
				default:
					if rng.Intn(200) == 0 { // rare, as in real runs
						tb.Reclaim()
						ref.Reclaim()
					}
				}
				if tb.Stats() != ref.stats {
					t.Fatalf("cfg %+v seed %d step %d: stats %+v, legacy %+v", cfg, seed, i, tb.Stats(), ref.stats)
				}
				if tb.Occupancy() != ref.Occupancy() {
					t.Fatalf("cfg %+v seed %d step %d: occupancy %d, legacy %d", cfg, seed, i, tb.Occupancy(), ref.Occupancy())
				}
			}
		}
	}
}
