package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

func TestPBInsertHit(t *testing.T) {
	b := must(NewPrefetchBuffer(64, 4))
	l := amo.LineOf(0x4000)
	b.Insert(l, PBEntry{ReadyAt: 100, TableIndex: 7})
	e, hit, partial := b.Hit(l, 150)
	if !hit || partial {
		t.Fatalf("hit=%v partial=%v, want full hit", hit, partial)
	}
	if e.TableIndex != 7 {
		t.Errorf("TableIndex = %d", e.TableIndex)
	}
	// Hits consume the entry.
	if _, hit, _ := b.Hit(l, 150); hit {
		t.Error("entry should be consumed by the first hit")
	}
	st := b.Stats()
	if st.Hits != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPBPartialHit(t *testing.T) {
	b := must(NewPrefetchBuffer(64, 4))
	l := amo.LineOf(0x4000)
	b.Insert(l, PBEntry{ReadyAt: 500})
	e, hit, partial := b.Hit(l, 100)
	if !hit || !partial {
		t.Fatalf("hit=%v partial=%v, want partial hit", hit, partial)
	}
	if e.ReadyAt != 500 {
		t.Errorf("ReadyAt = %d", e.ReadyAt)
	}
	if b.Stats().PartialHits != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestPBMiss(t *testing.T) {
	b := must(NewPrefetchBuffer(16, 4))
	if _, hit, _ := b.Hit(amo.LineOf(0x123440), 0); hit {
		t.Error("empty buffer should miss")
	}
}

func TestPBReinsertKeepsEarlierReady(t *testing.T) {
	b := must(NewPrefetchBuffer(16, 4))
	l := amo.LineOf(0x80)
	b.Insert(l, PBEntry{ReadyAt: 100})
	b.Insert(l, PBEntry{ReadyAt: 300, TableIndex: 9})
	e, hit, partial := b.Hit(l, 200)
	if !hit || partial {
		t.Fatalf("hit=%v partial=%v; re-insert must not delay arrival", hit, partial)
	}
	if e.TableIndex != 9 {
		t.Errorf("TableIndex should refresh to 9, got %d", e.TableIndex)
	}
	if b.Stats().Replaced != 1 || b.Stats().Inserts != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestPBEvictionLRU(t *testing.T) {
	// 4 entries, 4-way => one fully-associative set.
	b := must(NewPrefetchBuffer(4, 4))
	for i := 0; i < 4; i++ {
		b.Insert(amo.Line(i), PBEntry{})
	}
	// Line 0 is LRU; inserting a 5th evicts it.
	b.Insert(amo.Line(100), PBEntry{})
	if b.Contains(amo.Line(0)) {
		t.Error("line 0 should be evicted")
	}
	for _, l := range []amo.Line{1, 2, 3, 100} {
		if !b.Contains(l) {
			t.Errorf("line %v should be resident", l)
		}
	}
	if b.Stats().Evictions != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestPBSetMapping(t *testing.T) {
	// 8 entries 4-way => 2 sets; lines with equal parity of line number map
	// to the same set. Filling 5 even lines must not disturb odd lines.
	b := must(NewPrefetchBuffer(8, 4))
	b.Insert(amo.Line(1), PBEntry{})
	for i := 0; i < 5; i++ {
		b.Insert(amo.Line(2*i), PBEntry{})
	}
	if !b.Contains(amo.Line(1)) {
		t.Error("odd-set line evicted by even-set pressure")
	}
}

func TestPBInvalidate(t *testing.T) {
	b := must(NewPrefetchBuffer(16, 4))
	l := amo.LineOf(0xc0)
	b.Insert(l, PBEntry{})
	if !b.Invalidate(l) {
		t.Fatal("invalidate should find the line")
	}
	if b.Invalidate(l) {
		t.Fatal("second invalidate should miss")
	}
	if _, hit, _ := b.Hit(l, 0); hit {
		t.Error("invalidated line should not hit")
	}
}

// occupancy returns the number of valid entries in the buffer.
func occupancy(b *PrefetchBuffer) int {
	n := 0
	for i := range b.slots {
		if b.slots[i].lru != 0 {
			n++
		}
	}
	return n
}

func TestPBOccupancy(t *testing.T) {
	b := must(NewPrefetchBuffer(64, 4))
	for i := 0; i < 10; i++ {
		b.Insert(amo.Line(i*3), PBEntry{})
	}
	if got := occupancy(b); got != 10 {
		t.Errorf("Occupancy = %d, want 10", got)
	}
	b.Hit(amo.Line(0), 0)
	if got := occupancy(b); got != 9 {
		t.Errorf("Occupancy after hit = %d, want 9", got)
	}
}

func TestPBSmallerThanWays(t *testing.T) {
	b := must(NewPrefetchBuffer(2, 4)) // degenerates to 2-way single set
	b.Insert(amo.Line(1), PBEntry{})
	b.Insert(amo.Line(2), PBEntry{})
	b.Insert(amo.Line(3), PBEntry{})
	if got := occupancy(b); got != 2 {
		t.Errorf("Occupancy = %d, want 2", got)
	}
}

// refPB is an independent model of the prefetch buffer: each set is a
// recency list (MRU first) capped at the associativity, with no notion of
// way positions.
type refPB struct {
	nSets, ways int
	sets        map[int][]refPBLine
	stats       PBStats
}

type refPBLine struct {
	line  amo.Line
	entry PBEntry
}

func newRefPB(entries, ways int) *refPB {
	if entries < ways {
		ways = entries
	}
	return &refPB{nSets: entries / ways, ways: ways, sets: map[int][]refPBLine{}}
}

func (r *refPB) set(l amo.Line) int { return int(uint64(l) & uint64(r.nSets-1)) }

func (r *refPB) pos(l amo.Line) int {
	for i, x := range r.sets[r.set(l)] {
		if x.line == l {
			return i
		}
	}
	return -1
}

func (r *refPB) remove(l amo.Line, i int) refPBLine {
	s := r.sets[r.set(l)]
	x := s[i]
	r.sets[r.set(l)] = append(s[:i:i], s[i+1:]...)
	return x
}

func (r *refPB) contains(l amo.Line) bool { return r.pos(l) >= 0 }

func (r *refPB) insert(l amo.Line, e PBEntry) {
	if i := r.pos(l); i >= 0 {
		r.stats.Replaced++
		x := r.remove(l, i)
		x.entry.ReadyAt = min(x.entry.ReadyAt, e.ReadyAt)
		x.entry.IssuedAt, x.entry.TableIndex = e.IssuedAt, e.TableIndex
		r.sets[r.set(l)] = append([]refPBLine{x}, r.sets[r.set(l)]...)
		return
	}
	r.stats.Inserts++
	s := r.sets[r.set(l)]
	if len(s) == r.ways {
		s = s[:len(s)-1]
		r.stats.Evictions++
	}
	r.sets[r.set(l)] = append([]refPBLine{{l, e}}, s...)
}

func (r *refPB) hit(l amo.Line, now uint64) (PBEntry, bool, bool) {
	i := r.pos(l)
	if i < 0 {
		return PBEntry{}, false, false
	}
	e := r.remove(l, i).entry
	partial := e.ReadyAt > now
	if partial {
		r.stats.PartialHits++
	} else {
		r.stats.Hits++
	}
	return e, true, partial
}

func (r *refPB) invalidate(l amo.Line) bool {
	i := r.pos(l)
	if i < 0 {
		return false
	}
	r.remove(l, i)
	r.stats.Invalidations++
	return true
}

// peek returns the entry resident for the line without touching the
// buffer's state.
func peek(b *PrefetchBuffer, l amo.Line) (PBEntry, bool) {
	set, tag := b.locate(l)
	if i := pbFind(set, tag); i >= 0 {
		return set[i].entry, true
	}
	return PBEntry{}, false
}

// TestPrefetchBufferMatchesReferenceModel drives the buffer and the
// recency-list model with one random stream: Context.Prefetch's pattern
// (a missing Contains, 0-3 operations on lines of the same set, then
// Insert), Insert of a present line (the earlier ReadyAt is kept,
// IssuedAt and TableIndex are replaced), Hit at a random cycle (partial
// and full hits), Invalidate and bare Contains. After every step it
// compares every return value, the entry of every resident line,
// Occupancy and the statistics.
func TestPrefetchBufferMatchesReferenceModel(t *testing.T) {
	for _, shape := range [][2]int{{64, 4}, {1024, 4}, {16, 1}, {2, 4}} {
		entries, ways := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", entries, ways), func(t *testing.T) {
			b := must(NewPrefetchBuffer(entries, ways))
			ref := newRefPB(entries, ways)
			var pool []amo.Line
			for i := 0; i < 3*entries; i++ {
				pool = append(pool, amo.Line(i), amo.Line(1<<63|uint64(i)))
			}
			bySet := map[int][]amo.Line{}
			for _, l := range pool {
				bySet[ref.set(l)] = append(bySet[ref.set(l)], l)
			}
			rng := rand.New(rand.NewSource(11))
			entry := func() PBEntry {
				return PBEntry{ReadyAt: uint64(rng.Intn(1000)), IssuedAt: uint64(rng.Intn(1000)), TableIndex: int64(rng.Intn(64)) - 1}
			}
			var step string
			check := func() {
				t.Helper()
				resident := 0
				for _, s := range ref.sets {
					resident += len(s)
					for _, x := range s {
						if e, ok := peek(b, x.line); !ok || e != x.entry {
							t.Fatalf("%s: %v holds (%+v, %v), ref %+v", step, x.line, e, ok, x.entry)
						}
					}
				}
				if got := occupancy(b); got != resident {
					t.Fatalf("%s: Occupancy = %d, ref %d", step, got, resident)
				}
				if b.Stats() != ref.stats {
					t.Fatalf("%s: stats %+v, ref %+v", step, b.Stats(), ref.stats)
				}
			}
			var do func(op int, l amo.Line)
			do = func(op int, l amo.Line) {
				switch op {
				case 0: // Context.Prefetch: a missing Contains, then Insert
					if got, want := b.Contains(l), ref.contains(l); got != want {
						t.Fatalf("%s: Contains(%v) = %v, ref %v", step, l, got, want)
					}
					check()
					if ref.contains(l) {
						return
					}
					others := bySet[ref.set(l)]
					for j, n := 0, rng.Intn(4); j < n; j++ {
						if o := others[rng.Intn(len(others))]; o != l {
							do(1+rng.Intn(4), o)
						}
					}
					e := entry()
					b.Insert(l, e)
					ref.insert(l, e)
				case 1: // Insert, often of a present line
					e := entry()
					b.Insert(l, e)
					ref.insert(l, e)
				case 2:
					now := uint64(rng.Intn(1000))
					ge, gh, gp := b.Hit(l, now)
					we, wh, wp := ref.hit(l, now)
					if ge != we || gh != wh || gp != wp {
						t.Fatalf("%s: Hit(%v, %d) = (%+v, %v, %v), ref (%+v, %v, %v)", step, l, now, ge, gh, gp, we, wh, wp)
					}
				case 3:
					if got, want := b.Invalidate(l), ref.invalidate(l); got != want {
						t.Fatalf("%s: Invalidate(%v) = %v, ref %v", step, l, got, want)
					}
				case 4:
					if got, want := b.Contains(l), ref.contains(l); got != want {
						t.Fatalf("%s: Contains(%v) = %v, ref %v", step, l, got, want)
					}
				}
				check()
			}
			for i := 0; i < 20000; i++ {
				step = fmt.Sprintf("step %d", i)
				do(rng.Intn(5), pool[rng.Intn(len(pool))])
			}
			if st := b.Stats(); st.Evictions == 0 || st.Replaced == 0 || st.Hits == 0 || st.PartialHits == 0 || st.Invalidations == 0 {
				t.Errorf("stream left an event unexercised: %+v", st)
			}
		})
	}
}
