package cache

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// PBEntry describes a line resident in (or in flight to) the prefetch
// buffer.
type PBEntry struct {
	// ReadyAt is the cycle the prefetched data arrives. A demand access
	// before ReadyAt is a partial hit: it must wait for the remaining
	// latency instead of paying a full off-chip access.
	ReadyAt uint64
	// IssuedAt is the cycle the prefetch was requested; a demand hit at
	// cycle now has used the prefetch now-IssuedAt cycles after issue
	// (the raw timeliness datum the metrics layer histograms).
	IssuedAt uint64
	// TableIndex records which correlation-table entry generated the
	// prefetch, so a hit can schedule the LRU-update write the paper
	// describes (Section 3.4.3). Prefetchers that do not need write-back
	// use NoTableIndex.
	TableIndex int64
}

// NoTableIndex marks prefetch-buffer entries with no associated
// correlation-table entry.
const NoTableIndex int64 = -1

// PBStats counts prefetch buffer events.
type PBStats struct {
	Inserts     uint64
	Hits        uint64 // demand hits on arrived lines
	PartialHits uint64 // demand hits on in-flight lines
	// Evictions counts valid entries displaced by an insert. A hit
	// consumes its entry, so every displaced entry was never used.
	Evictions     uint64
	Replaced      uint64 // inserts that found the line already present
	Invalidations uint64
}

// pbWay is one buffer entry. lru is its recency stamp (higher is more
// recent); stamps start at 1, so 0 marks an empty way.
type pbWay struct {
	tag   uint64
	lru   uint64
	entry PBEntry
}

// PrefetchBuffer is the small fully-on-chip buffer that receives prefetched
// lines. It is organized 4-way set-associative (Section 5.2.3) and is
// searched in parallel with the L2 cache. Lines are promoted to the
// regular caches only when a demand request hits them.
type PrefetchBuffer struct {
	ways    int
	nSets   int
	setBits uint
	slots   []pbWay // set-major: set s is slots[s*ways : (s+1)*ways]
	stamp   uint64
	stats   PBStats
}

// NewPrefetchBuffer creates a buffer with the given total entries and
// associativity. entries/ways must be a power of two number of sets; a
// buffer smaller than one full set degenerates to fully associative. A
// bad shape returns an ErrInvalidConfig-classified error.
func NewPrefetchBuffer(entries, ways int) (*PrefetchBuffer, error) {
	if entries <= 0 || ways <= 0 {
		return nil, ebcperr.Invalidf("cache: bad prefetch buffer shape %d/%d (entries and ways must be positive)", entries, ways)
	}
	if entries < ways {
		ways = entries
	}
	nSets := entries / ways
	if !amo.IsPow2(uint64(nSets)) {
		return nil, ebcperr.Invalidf("cache: prefetch buffer sets %d not a power of two", nSets)
	}
	return &PrefetchBuffer{
		ways:    ways,
		nSets:   nSets,
		setBits: amo.Log2(uint64(nSets)),
		slots:   make([]pbWay, nSets*ways),
	}, nil
}

// Stats returns a copy of the counters.
func (b *PrefetchBuffer) Stats() PBStats { return b.stats }

// ResetStats zeroes the counters without touching contents.
func (b *PrefetchBuffer) ResetStats() { b.stats = PBStats{} }

// locate returns the line's set and tag.
//
//ebcp:hotpath
func (b *PrefetchBuffer) locate(l amo.Line) (set []pbWay, tag uint64) {
	base := l.SetIndex(b.nSets) * b.ways
	return b.slots[base : base+b.ways : base+b.ways], l.Tag(b.setBits)
}

// pbFind returns the way holding the tag in the set, or -1.
//
//ebcp:hotpath
func pbFind(set []pbWay, tag uint64) int {
	for i := range set {
		if set[i].lru != 0 && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// pbScan makes one pass over the set and returns the way holding the
// tag, or -1 and the way an insert would replace: the first empty way,
// else the least recently used one (the first way with the lowest stamp,
// since an empty way's stamp is 0).
//
//ebcp:hotpath
func pbScan(set []pbWay, tag uint64) (hit, victim int) {
	low := ^uint64(0)
	for i := range set {
		w := &set[i]
		if w.lru != 0 && w.tag == tag {
			return i, 0
		}
		if w.lru < low {
			low = w.lru
			victim = i
		}
	}
	return -1, victim
}

// Contains probes for the line without side effects.
//
//ebcp:hotpath
func (b *PrefetchBuffer) Contains(l amo.Line) bool {
	set, tag := b.locate(l)
	return pbFind(set, tag) >= 0
}

// Insert places a prefetched line in the buffer, evicting LRU if needed.
// Inserting a line already present refreshes it (keeping the earlier
// ReadyAt, since the data is already on its way).
//
//ebcp:hotpath
func (b *PrefetchBuffer) Insert(l amo.Line, e PBEntry) {
	b.stamp++
	set, tag := b.locate(l)
	i, vi := pbScan(set, tag)
	if i >= 0 {
		b.stats.Replaced++
		if e.ReadyAt < set[i].entry.ReadyAt {
			set[i].entry.ReadyAt = e.ReadyAt
		}
		set[i].entry.IssuedAt = e.IssuedAt
		set[i].entry.TableIndex = e.TableIndex
		set[i].lru = b.stamp
		return
	}
	b.stats.Inserts++
	if set[vi].lru != 0 {
		b.stats.Evictions++
	}
	set[vi] = pbWay{tag: tag, lru: b.stamp, entry: e}
}

// Hit checks for a demand hit at cycle now. On a hit the entry is consumed
// (the line is promoted to the regular caches by the caller) and its
// metadata returned. A hit on an in-flight entry is reported with
// partial=true; the caller should charge entry.ReadyAt-now of residual
// latency.
//
//ebcp:hotpath
func (b *PrefetchBuffer) Hit(l amo.Line, now uint64) (e PBEntry, hit, partial bool) {
	set, tag := b.locate(l)
	i := pbFind(set, tag)
	if i < 0 {
		return PBEntry{}, false, false
	}
	e = set[i].entry
	partial = e.ReadyAt > now
	if partial {
		b.stats.PartialHits++
	} else {
		b.stats.Hits++
	}
	set[i].lru = 0
	return e, true, partial
}

// Invalidate removes the line if present (e.g. on a store to a prefetched
// line, keeping the buffer coherent).
//
//ebcp:hotpath
func (b *PrefetchBuffer) Invalidate(l amo.Line) bool {
	set, tag := b.locate(l)
	i := pbFind(set, tag)
	if i < 0 {
		return false
	}
	set[i].lru = 0
	b.stats.Invalidations++
	return true
}
