package corrtab

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"ebcp/internal/amo"
)

// hitRate returns hits/lookups.
func hitRate(s Stats) float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

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
	if r := hitRate(tb.Stats()); r != 0 {
		t.Errorf("hit rate = %v", r)
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

// refTable is an obviously-correct reference model of the table: a map
// from table index to the entry's tag and addresses, MRU first, with the
// same counters.
type refTable struct {
	entries  uint64
	maxAddrs int
	m        map[uint64]*refEntry
	stats    Stats
}

type refEntry struct {
	tag   amo.Line
	addrs []amo.Line // MRU first
}

func newRef(cfg Config) *refTable {
	return &refTable{entries: uint64(cfg.Entries), maxAddrs: cfg.MaxAddrs, m: make(map[uint64]*refEntry)}
}

func (r *refTable) promote(e *refEntry, a amo.Line) {
	for i, x := range e.addrs {
		if x == a {
			e.addrs = append(e.addrs[:i], e.addrs[i+1:]...)
			break
		}
	}
	e.addrs = append([]amo.Line{a}, e.addrs...)
	if len(e.addrs) > r.maxAddrs {
		e.addrs = e.addrs[:r.maxAddrs]
	}
}

func (r *refTable) Update(key amo.Line, addrs []amo.Line) {
	r.stats.Updates++
	idx := uint64(key) % r.entries
	e := r.m[idx]
	if e == nil || e.tag != key {
		if e != nil {
			r.stats.ConflictEvictions++
		}
		r.stats.Allocations++
		e = &refEntry{tag: key}
		r.m[idx] = e
		if len(addrs) > r.maxAddrs {
			addrs = addrs[:r.maxAddrs]
		}
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		r.promote(e, addrs[i])
	}
}

func (r *refTable) Lookup(key amo.Line) []amo.Line {
	r.stats.Lookups++
	e := r.m[uint64(key)%r.entries]
	if e == nil || e.tag != key {
		return nil
	}
	r.stats.Hits++
	return e.addrs
}

func (r *refTable) Touch(idx uint64, a amo.Line) {
	e := r.m[idx%r.entries]
	if e == nil {
		return
	}
	for _, x := range e.addrs {
		if x == a {
			r.promote(e, a)
			r.stats.Touches++
			return
		}
	}
}

// sameLines reports whether a Lookup result matches the reference's,
// order included.
func sameLines(got, want []amo.Line) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestMatchesReferenceModel drives the table and the reference model with
// the same random operation stream and requires identical observable
// behaviour: entry contents in MRU order and every counter.
func TestMatchesReferenceModel(t *testing.T) {
	cfg := Config{Entries: 64, MaxAddrs: 4}
	tb, ref := must(New(cfg)), newRef(cfg)
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
			ref.Update(key, addrs)
		case 1:
			if got, want := tb.Lookup(key), ref.Lookup(key); !sameLines(got, want) {
				t.Fatalf("step %d: Lookup(%v) = %v, ref %v", i, key, got, want)
			}
		case 2:
			a := amo.Line(rng.Intn(64))
			tb.Touch(tb.Index(key), a)
			ref.Touch(tb.Index(key), a)
		}
	}
	if tb.Stats() != ref.stats {
		t.Errorf("stats %+v, ref %+v", tb.Stats(), ref.stats)
	}
}

// TestWideningMatchesReference fills a table with lines that use all 40
// bits of a narrow field, then gives it one wider line. Every lookup,
// touch and counter must match the reference model before and after the
// table re-encodes its records with 8-byte fields.
func TestWideningMatchesReference(t *testing.T) {
	cfg := Config{Entries: 256, MaxAddrs: 8}
	tb, ref := must(New(cfg)), newRef(cfg)
	rng := rand.New(rand.NewSource(5))
	top := func() amo.Line { return amo.Line(1<<40 - 1 - rng.Intn(2048)) } // 40-bit lines
	var keys []amo.Line
	check := func(phase string) {
		t.Helper()
		for _, k := range keys {
			if got, want := tb.Lookup(k), ref.Lookup(k); !sameLines(got, want) {
				t.Fatalf("%s: Lookup(%v) = %v, ref %v", phase, k, got, want)
			}
		}
		if tb.Stats() != ref.stats || tb.Occupancy() != len(ref.m) {
			t.Fatalf("%s: stats %+v occupancy %d, ref %+v %d", phase, tb.Stats(), tb.Occupancy(), ref.stats, len(ref.m))
		}
	}
	ops := func(n int, line func() amo.Line) {
		for i := 0; i < n; i++ {
			key := line()
			keys = append(keys, key)
			addrs := make([]amo.Line, 1+rng.Intn(cfg.MaxAddrs+2))
			for j := range addrs {
				addrs[j] = line()
			}
			tb.Update(key, addrs)
			ref.Update(key, addrs)
			if got, want := tb.Lookup(key), ref.Lookup(key); !sameLines(got, want) {
				t.Fatalf("op %d: Lookup(%v) = %v, ref %v", i, key, got, want)
			}
			a := addrs[rng.Intn(len(addrs))]
			tb.Touch(tb.Index(key), a)
			ref.Touch(tb.Index(key), a)
		}
	}

	ops(2000, top)
	// A wide probe of a stored key's low 40 bits must miss at width 5.
	probe := keys[0] | 1<<40
	if got, want := tb.Lookup(probe), ref.Lookup(probe); !sameLines(got, want) {
		t.Fatalf("narrow: Lookup(%v) = %v, ref %v", probe, got, want)
	}
	check("narrow")
	if tb.lay.width != narrowWidth {
		t.Fatalf("width %d before any wide line, want %d", tb.lay.width, narrowWidth)
	}

	wide := lines(uint64(top()), 1<<40|uint64(keys[1]))
	tb.Update(keys[2], wide)
	ref.Update(keys[2], wide)
	if tb.lay.width != wideWidth {
		t.Fatalf("width %d after a line at 2^40, want %d", tb.lay.width, wideWidth)
	}
	check("widened")

	ops(2000, func() amo.Line {
		if rng.Intn(2) == 0 {
			return top() | amo.Line(rng.Uint64())<<40
		}
		return top()
	})
	check("wide")
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

func (t *legacyTable) Occupancy() int { return len(t.entries) }

// TestDifferentialLegacyVsPaged fuzzes update/lookup/touch
// sequences into the paged table and the legacy map-backed layout and
// asserts identical observable behaviour: returned address lists, the
// full stats struct, and occupancy. Narrow streams keep every line below
// 2^40, so the table must stay at 5-byte fields throughout. Mixed streams
// also look up and touch wide lines from the start (the low 40 bits of
// some collide with stored lines) and, from halfway, store them, so the
// table must widen exactly then.
func TestDifferentialLegacyVsPaged(t *testing.T) {
	configs := []Config{
		{Entries: 64, MaxAddrs: 4},
		{Entries: 1024, MaxAddrs: 8},
		{Entries: 1 << 20, MaxAddrs: 32}, // sparse: touched indices ≪ entries
	}
	const steps, storeWide = 20000, 10000
	for _, mixed := range []bool{false, true} {
		for _, cfg := range configs {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed * 997))
				tb := must(New(cfg))
				ref := newLegacy(cfg)
				// widen turns some lines of a mixed stream wide, once
				// wide lines may be stored or whenever they are only
				// probed.
				widen := func(l amo.Line, store bool, i int) amo.Line {
					if !mixed || (store && i < storeWide) || rng.Intn(8) != 0 {
						return l
					}
					return l | amo.Line(1+rng.Intn(1<<24))<<40
				}
				// Key space wider than the table forces tag conflicts; a
				// handful of hot keys forces promote/merge paths.
				keyFor := func(store bool, i int) amo.Line {
					if rng.Intn(4) == 0 {
						return widen(amo.Line(rng.Intn(16)), store, i)
					}
					return widen(amo.Line(rng.Uint64()%uint64(4*cfg.Entries)), store, i)
				}
				for i := 0; i < steps; i++ {
					switch op := rng.Intn(10); {
					case op < 4: // update
						key := keyFor(true, i)
						addrs := make([]amo.Line, rng.Intn(cfg.MaxAddrs+3))
						for j := range addrs {
							addrs[j] = widen(amo.Line(rng.Intn(128)), true, i)
						}
						tb.Update(key, addrs)
						ref.Update(key, addrs)
					case op < 8: // lookup
						key := keyFor(false, i)
						if got, want := tb.Lookup(key), ref.Lookup(key); !sameLines(got, want) {
							t.Fatalf("cfg %+v mixed %v seed %d step %d: Lookup(%v) = %v, legacy %v", cfg, mixed, seed, i, key, got, want)
						}
					default: // touch
						key, a := keyFor(false, i), widen(amo.Line(rng.Intn(128)), false, i)
						tb.Touch(tb.Index(key), a)
						ref.Touch(tb.Index(key), a)
					}
					if tb.Stats() != ref.stats {
						t.Fatalf("cfg %+v mixed %v seed %d step %d: stats %+v, legacy %+v", cfg, mixed, seed, i, tb.Stats(), ref.stats)
					}
					if tb.Occupancy() != ref.Occupancy() {
						t.Fatalf("cfg %+v mixed %v seed %d step %d: occupancy %d, legacy %d", cfg, mixed, seed, i, tb.Occupancy(), ref.Occupancy())
					}
					if want := narrowWidth; (!mixed || i < storeWide) && tb.lay.width != want {
						t.Fatalf("cfg %+v mixed %v seed %d step %d: width %d, want %d", cfg, mixed, seed, i, tb.lay.width, want)
					}
				}
				if mixed && tb.lay.width != wideWidth {
					t.Fatalf("cfg %+v seed %d: width %d after wide updates, want %d", cfg, seed, tb.lay.width, wideWidth)
				}
			}
		}
	}
}

// TestTunedRecordBytes pins the tuned table's footprint while every line
// fits in 40 bits: 47-byte records (a 5-byte tag, a 2-byte count and
// eight 5-byte addresses) in pages of 512, each padded by 8 bytes.
func TestTunedRecordBytes(t *testing.T) {
	tb := table(1<<20, 8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3*pageSize+17; i++ {
		key := amo.Line(uint64(i) | 1<<39) // distinct indices, 40-bit lines
		tb.Update(key, lines(rng.Uint64()>>24, rng.Uint64()>>24))
	}
	if tb.lay.stride != 47 {
		t.Errorf("record stride %d bytes, want 47", tb.lay.stride)
	}
	if got, want := arenaBytes(tb), 4*(pageSize*47+pagePad); got != want {
		t.Errorf("arena %d bytes for %d entries, want %d", got, tb.Occupancy(), want)
	}
}
