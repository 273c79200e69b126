package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ebcp/internal/amo"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	// 4KB, 4-way, 64B lines -> 16 sets of 4.
	return must(New(Config{Name: "test", SizeBytes: 4096, Ways: 4, HitLatency: 1}))
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "L2", SizeBytes: 2 << 20, Ways: 4, HitLatency: 20}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "a", SizeBytes: 0, Ways: 4},
		{Name: "b", SizeBytes: 3000, Ways: 4},
		{Name: "c", SizeBytes: 4096, Ways: 0},
		{Name: "d", SizeBytes: 4096, Ways: 3},     // 64 lines / 3 ways not integral sets... 64/3 not divisible
		{Name: "e", SizeBytes: 1 << 20, Ways: 48}, // sets not power of two? 16384/48 not divisible
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be rejected", c)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(t)
	l := amo.LineOf(0x1000)
	if c.Access(l) {
		t.Fatal("cold access should miss")
	}
	c.Fill(l, false)
	if !c.Access(l) {
		t.Fatal("access after fill should hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache(t) // 16 sets, 4 ways
	// 5 lines mapping to set 0 (line numbers 0,16,32,48,64).
	lines := make([]amo.Line, 5)
	for i := range lines {
		lines[i] = amo.Line(i * 16)
	}
	for _, l := range lines[:4] {
		c.Access(l)
		c.Fill(l, false)
	}
	// Touch line 0 so line 16 is LRU.
	if !c.Access(lines[0]) {
		t.Fatal("line 0 should hit")
	}
	victim, evicted, _ := c.Fill(lines[4], false)
	if !evicted || victim != lines[1] {
		t.Fatalf("evicted %v (%v), want line %v", victim, evicted, lines[1])
	}
	if c.Lookup(lines[1]) {
		t.Error("evicted line still present")
	}
	for _, l := range []amo.Line{lines[0], lines[2], lines[3], lines[4]} {
		if !c.Lookup(l) {
			t.Errorf("line %v should be resident", l)
		}
	}
}

func TestFillExistingLineDoesNotEvict(t *testing.T) {
	c := smallCache(t)
	l := amo.LineOf(0x40)
	c.Fill(l, false)
	fills := c.Stats().Fills
	if _, evicted, _ := c.Fill(l, true); evicted {
		t.Error("re-fill of resident line must not evict")
	}
	if c.Stats().Fills != fills {
		t.Error("re-fill of resident line must not count as a fill")
	}
}

// refCache is an independent model of a true-LRU set-associative cache:
// each set is a recency list (MRU first) capped at the associativity, so
// replacement is "evict the list's tail" with no notion of way positions.
type refCache struct {
	nSets, ways int
	sets        map[int][]amo.Line
	dirty       map[amo.Line]bool
	stats       Stats
}

func (r *refCache) set(l amo.Line) int { return int(uint64(l) & uint64(r.nSets-1)) }

func (r *refCache) pos(l amo.Line) int {
	for i, x := range r.sets[r.set(l)] {
		if x == l {
			return i
		}
	}
	return -1
}

func (r *refCache) toFront(l amo.Line, i int) {
	s := r.sets[r.set(l)]
	copy(s[1:i+1], s[:i])
	s[0] = l
}

func (r *refCache) access(l amo.Line) bool {
	r.stats.Accesses++
	if i := r.pos(l); i >= 0 {
		r.toFront(l, i)
		return true
	}
	r.stats.Misses++
	return false
}

func (r *refCache) fill(l amo.Line, dirty bool) (victim amo.Line, evicted, victimDirty bool) {
	if i := r.pos(l); i >= 0 {
		r.toFront(l, i)
		r.dirty[l] = r.dirty[l] || dirty
		return 0, false, false
	}
	r.stats.Fills++
	si := r.set(l)
	s := r.sets[si]
	if len(s) == r.ways {
		victim, evicted, victimDirty = s[len(s)-1], true, r.dirty[s[len(s)-1]]
		delete(r.dirty, victim)
		s = s[:len(s)-1]
		r.stats.Evictions++
		if victimDirty {
			r.stats.DirtyEvictions++
		}
	}
	r.sets[si] = append([]amo.Line{l}, s...)
	r.dirty[l] = dirty
	return victim, evicted, victimDirty
}

// TestCacheMatchesReferenceModel drives the cache and the recency-list
// model with one random operation stream and requires every observable
// to agree: Access and Lookup results, each Fill's (victim, evicted,
// victimDirty), and the statistics. The line pool mixes small lines with lines at the
// top of the address range that share their low bits, so a lossy tag
// encoding would alias them.
//
// A second stream then repeats the simulator's demand path: Access a
// line, run 0-3 operations on other lines of its set, then Fill it. That
// puts the way a missing Access remembers in each of its states on every
// configuration: reused by the Fill, overwritten by another miss, and
// cleared by an Access hit or a Fill of another line. The model has no remembered way, so a stale one shows as a
// wrong victim.
func TestCacheMatchesReferenceModel(t *testing.T) {
	configs := []Config{
		{Name: "1way", SizeBytes: 1024, Ways: 1},
		{Name: "2way", SizeBytes: 2048, Ways: 2},
		{Name: "4way", SizeBytes: 4096, Ways: 4},
		{Name: "8way", SizeBytes: 4096, Ways: 8},
		{Name: "fullyassoc", SizeBytes: 512, Ways: 8}, // one set, setBits 0
	}
	for _, cfg := range configs {
		t.Run(cfg.Name, func(t *testing.T) {
			c := must(New(cfg))
			nSets := int(cfg.SizeBytes / amo.LineSize / uint64(cfg.Ways))
			ref := &refCache{nSets: nSets, ways: cfg.Ways, sets: map[int][]amo.Line{}, dirty: map[amo.Line]bool{}}
			// Enough distinct lines per set for conflict pressure, each
			// small one shadowed by high lines with the same set index.
			var pool []amo.Line
			for i := 0; i < nSets*cfg.Ways*2; i++ {
				set := uint64(i % nSets)
				pool = append(pool, amo.Line(i), amo.Line(1<<62|uint64(i)), amo.Line(1<<63|set))
			}
			pool = append(pool, amo.Line(^uint64(0)), amo.Line(^uint64(0)-uint64(nSets)), amo.Line(1<<63))
			bySet := map[int][]amo.Line{}
			for _, l := range pool {
				bySet[ref.set(l)] = append(bySet[ref.set(l)], l)
			}

			const (
				opAccess = iota
				opFill
				opLookup
			)
			var step string
			// do applies one operation to both and compares its results;
			// it reports whether the line was present beforehand.
			do := func(op int, l amo.Line, dirty bool) (present bool) {
				present = ref.pos(l) >= 0
				switch op {
				case opAccess:
					if got, want := c.Access(l), ref.access(l); got != want {
						t.Fatalf("%s: Access(%v) = %v, ref %v", step, l, got, want)
					}
				case opFill:
					gv, ge, gd := c.Fill(l, dirty)
					wv, we, wd := ref.fill(l, dirty)
					if gv != wv || ge != we || gd != wd {
						t.Fatalf("%s: Fill(%v, %v) = (%v, %v, %v), ref (%v, %v, %v)", step, l, dirty, gv, ge, gd, wv, we, wd)
					}
				}
				if got, want := c.Lookup(l), ref.pos(l) >= 0; got != want {
					t.Fatalf("%s: Lookup(%v) = %v, ref %v", step, l, got, want)
				}
				if c.Stats() != ref.stats {
					t.Fatalf("%s: stats %+v, ref %+v", step, c.Stats(), ref.stats)
				}
				return present
			}

			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				step = fmt.Sprintf("step %d", i)
				l := pool[rng.Intn(len(pool))]
				if rng.Intn(2) == 0 {
					do(opAccess, l, false)
				} else {
					do(opFill, l, rng.Intn(3) == 0)
				}
			}

			// The demand-path stream, tallying what happened to the way
			// each missing Access remembered.
			var reused, overwritten, byAccessHit, byFill int
			rng = rand.New(rand.NewSource(8))
			for i := 0; i < 20000; i++ {
				l := pool[rng.Intn(len(pool))]
				others := bySet[ref.set(l)]
				step = fmt.Sprintf("demand %d: Access", i)
				remembered := !do(opAccess, l, false)
				for j, n := 0, rng.Intn(4); j < n; j++ {
					o := others[rng.Intn(len(others))]
					if o == l {
						continue
					}
					op := rng.Intn(3)
					step = fmt.Sprintf("demand %d: op %d", i, j)
					present := do(op, o, rng.Intn(3) == 0)
					if !remembered {
						continue
					}
					switch {
					case op == opAccess && !present:
						overwritten++
						remembered = false
					case op == opAccess:
						byAccessHit++
						remembered = false
					case op == opFill:
						byFill++
						remembered = false
					}
				}
				step = fmt.Sprintf("demand %d: Fill", i)
				do(opFill, l, rng.Intn(3) == 0)
				if remembered {
					reused++
				}
			}
			for name, n := range map[string]int{"reused": reused, "overwritten": overwritten,
				"cleared by an Access hit": byAccessHit, "cleared by a Fill": byFill} {
				if n == 0 {
					t.Errorf("the demand stream never had the remembered way %s", name)
				}
			}
		})
	}
}

func TestResetStats(t *testing.T) {
	c := smallCache(t)
	c.Access(amo.LineOf(0x40))
	c.Fill(amo.LineOf(0x40), false)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Errorf("stats not cleared: %+v", c.Stats())
	}
	if !c.Lookup(amo.LineOf(0x40)) {
		t.Error("ResetStats must not flush contents")
	}
}

func TestCapacityProperty(t *testing.T) {
	// After arbitrarily many fills, at most Ways distinct lines of any one
	// set survive.
	f := func(seeds []uint16) bool {
		c := must(New(Config{Name: "p", SizeBytes: 1024, Ways: 2, HitLatency: 1})) // 8 sets x 2
		for _, s := range seeds {
			c.Fill(amo.Line(s), false)
		}
		// Count resident distinct lines overall.
		seen := map[amo.Line]bool{}
		resident := 0
		for _, s := range seeds {
			l := amo.Line(s)
			if !seen[l] && c.Lookup(l) {
				seen[l] = true
				resident++
			}
		}
		return resident <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := must(New(Config{Name: "d", SizeBytes: 4096, Ways: 4, HitLatency: 1})) // 16 sets x 4
	// Fill set 0 with 3 clean lines and one dirty line.
	for i := 0; i < 3; i++ {
		c.Fill(amo.Line(i*16), false)
	}
	c.Fill(amo.Line(3*16), true)
	// Displace the clean LRU lines first: no writebacks.
	_, _, vd := c.Fill(amo.Line(4*16), false)
	if vd {
		t.Error("clean victim reported dirty")
	}
	// Keep filling until the dirty line is the victim.
	sawDirty := false
	for i := 5; i < 9; i++ {
		if _, ev, vd := c.Fill(amo.Line(i*16), false); ev && vd {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Error("dirty line never reported on eviction")
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d, want 1", c.Stats().DirtyEvictions)
	}
}

func TestRefillMergesDirtyBit(t *testing.T) {
	c := must(New(Config{Name: "d2", SizeBytes: 4096, Ways: 4, HitLatency: 1}))
	l := amo.LineOf(0x40)
	c.Fill(l, false)
	c.Fill(l, true) // store to a resident line marks it dirty
	// Evicting it must report the merged dirty bit.
	sawDirty := false
	for i := 0; i < 5; i++ {
		if _, ev, vd := c.Fill(amo.Line(1+16*uint64(i)), false); ev && vd {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Error("merged dirty bit lost")
	}
}
