// Package cache models the on-chip cache hierarchy of the default
// processor configuration: set-associative L1 instruction/data caches and a
// unified L2, all with true-LRU replacement and 64B lines, plus the small
// 4-way prefetch buffer that every evaluated prefetcher fills (Section 5.2
// of the paper: prefetched lines live in the buffer and are only promoted
// into the regular caches when they satisfy a demand request). MSHR
// merging of outstanding misses is modelled in internal/sim.
package cache

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
)

// Config describes one cache.
type Config struct {
	// Name is used in stats output ("L1I", "L1D", "L2").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the set associativity.
	Ways int
	// HitLatency is the access latency in core cycles.
	HitLatency uint64
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.SizeBytes == 0 || !amo.IsPow2(c.SizeBytes) {
		return ebcperr.Invalidf("cache %s: size %d must be a non-zero power of two", c.Name, c.SizeBytes)
	}
	if c.Ways <= 0 {
		return ebcperr.Invalidf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	lines := c.SizeBytes / amo.LineSize
	if lines%uint64(c.Ways) != 0 {
		return ebcperr.Invalidf("cache %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if !amo.IsPow2(sets) {
		return ebcperr.Invalidf("cache %s: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Stamp-word layout: bit 0 is valid, bit 1 is dirty, and the LRU stamp
// (higher is more recent) fills the bits above them.
const (
	validBit   = 1
	dirtyBit   = 2
	stampShift = 2
)

// Cache is a set-associative cache with true-LRU replacement.
//
// Its state is one flat word array in set-major order: each set is its
// ways tag words (the full line number, so no line value can alias
// another) followed by its ways stamp words (valid, dirty and the LRU
// stamp). A 4-way set is therefore 64 bytes, one host cache line, and a
// simulated probe touches one host line.
//
// A missing Access also picks the way a Fill of that line would replace
// and remembers it (pend, the index of its tag word, for pendLine), so
// the Fill that follows a demand miss installs without scanning the set
// again. Every other mutation clears the remembered way, so the way used
// is always the one a full scan would choose.
type Cache struct {
	cfg      Config
	words    []uint64
	setMask  uint64
	stamp    uint64
	pend     int // tag-word index of the remembered victim, or -1
	pendLine amo.Line
	stats    metrics.CacheCounters
}

// New builds a cache from cfg. It returns an ErrInvalidConfig-classified
// error if the configuration fails Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := int(cfg.SizeBytes / amo.LineSize / uint64(cfg.Ways))
	return &Cache{
		cfg:     cfg,
		words:   make([]uint64, nSets*2*cfg.Ways),
		setMask: uint64(nSets - 1),
		pend:    -1,
	}, nil
}

// Stats returns a copy of the event counters. Access counts accesses
// and misses only, so Hits is filled in here, off the per-access path.
func (c *Cache) Stats() metrics.CacheCounters {
	s := c.stats
	s.Hits = s.Accesses - s.Misses
	return s
}

// ResetStats zeroes the event counters (used at the warmup/measure
// boundary) without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = metrics.CacheCounters{} }

// locate returns the index of the line's set in words, and the set's tag
// and stamp words.
//
//ebcp:hotpath
func (c *Cache) locate(l amo.Line) (base int, tags, stamps []uint64) {
	w := c.cfg.Ways
	base = int(uint64(l)&c.setMask) * 2 * w
	set := c.words[base : base+2*w : base+2*w]
	return base, set[:w], set[w:]
}

// find returns the way holding the line in the set, or -1.
//
//ebcp:hotpath
func find(tags, stamps []uint64, l amo.Line) int {
	for i, t := range tags {
		if t == uint64(l) && stamps[i]&validBit != 0 {
			return i
		}
	}
	return -1
}

// scan makes one pass over the set and returns the way holding the line,
// or -1 and the way a fill would replace: the first invalid way, else the
// least recently used one. An invalid way's key is 0 and a valid way's key
// is its stamp word (at least validBit, and unique, so the flag bits never
// decide), so the victim is the first way with the lowest key. The victim
// selection is written branch-free, and in Access it compiles to
// conditional moves: on a condensed trace nearly every probe misses
// somewhere, and which way holds the minimum is unpredictable. A hit needs
// no victim, so the scan stops there.
//
//ebcp:hotpath
func scan(tags, stamps []uint64, l amo.Line) (hit, victim int) {
	stamps = stamps[:len(tags)]
	low := ^uint64(0)
	for i, t := range tags {
		s := stamps[i]
		if t == uint64(l) && s&validBit != 0 {
			return i, 0
		}
		key := s & -(s & validBit)
		if key < low {
			low = key
			victim = i
		}
	}
	return -1, victim
}

// Lookup probes for the line without updating statistics or LRU state.
//
//ebcp:hotpath
func (c *Cache) Lookup(l amo.Line) bool {
	_, tags, stamps := c.locate(l)
	return find(tags, stamps, l) >= 0
}

// Access probes for the line, counting the access and updating LRU on a
// hit. It returns whether the line was present. A miss remembers the way
// a Fill of the line would replace.
//
//ebcp:hotpath
func (c *Cache) Access(l amo.Line) bool {
	c.stats.Accesses++
	base, tags, stamps := c.locate(l)
	i, vi := scan(tags, stamps, l)
	if i >= 0 {
		c.pend = -1
		c.stamp++
		stamps[i] = c.stamp<<stampShift | stamps[i]&(dirtyBit|validBit)
		return true
	}
	c.stats.Misses++
	c.pend, c.pendLine = base+vi, l
	return false
}

// Fill installs the line (e.g. on a demand fill or a prefetch-buffer
// promotion), evicting the LRU way if the set is full. It returns the
// evicted line, whether an eviction occurred, and whether the victim was
// dirty (needs a writeback). A Fill of the line the last Access missed,
// with no mutating call since, installs into the way that miss picked.
//
//ebcp:hotpath
func (c *Cache) Fill(l amo.Line, dirty bool) (victim amo.Line, evicted, victimDirty bool) {
	c.stamp++
	var d uint64
	if dirty {
		d = dirtyBit
	}
	// tw and sw index the tag and stamp words of the way to install into.
	tw := c.pend
	c.pend = -1
	if tw < 0 || c.pendLine != l {
		base, tags, stamps := c.locate(l)
		i, vi := scan(tags, stamps, l)
		// Already present (e.g. racing fills): refresh, merging the dirty bit.
		if i >= 0 {
			stamps[i] = c.stamp<<stampShift | stamps[i]&dirtyBit | d | validBit
			return 0, false, false
		}
		tw = base + vi
	}
	c.stats.Fills++
	sw := tw + c.cfg.Ways
	if old := c.words[sw]; old&validBit != 0 {
		victim = amo.Line(c.words[tw])
		evicted = true
		victimDirty = old&dirtyBit != 0
		c.stats.Evictions++
		if victimDirty {
			c.stats.DirtyEvictions++
		}
	}
	c.words[tw] = uint64(l)
	c.words[sw] = c.stamp<<stampShift | d | validBit
	return victim, evicted, victimDirty
}
