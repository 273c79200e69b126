// Package cache models the on-chip cache hierarchy of the default
// processor configuration: set-associative L1 instruction/data caches and a
// unified L2, all with true-LRU replacement and 64B lines, plus the MSHR
// files that bound the number of outstanding misses and the small 4-way
// prefetch buffer that every evaluated prefetcher fills (Section 5.2 of the
// paper: prefetched lines live in the buffer and are only promoted into the
// regular caches when they satisfy a demand request).
package cache

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
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

// Stats counts cache events.
type Stats struct {
	Accesses uint64
	Misses   uint64
	// Fills counts lines installed (demand fills and promotions).
	Fills uint64
	// Evictions counts valid lines displaced by fills; DirtyEvictions the
	// subset needing a writeback.
	Evictions      uint64
	DirtyEvictions uint64
}

// MissRate returns misses/accesses (0 if no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set stamp; higher is more recent.
	lru uint64
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg     Config
	sets    [][]way
	nSets   int
	setBits uint
	stamp   uint64
	stats   Stats
}

// New builds a cache from cfg. It returns an ErrInvalidConfig-classified
// error if the configuration fails Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := int(cfg.SizeBytes / amo.LineSize / uint64(cfg.Ways))
	sets := make([][]way, nSets)
	backing := make([]way, nSets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:     cfg,
		sets:    sets,
		nSets:   nSets,
		setBits: amo.Log2(uint64(nSets)),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nSets }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (used at the warmup/measure
// boundary) without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

//ebcp:hotpath
func (c *Cache) locate(l amo.Line) (set []way, tag uint64) {
	return c.sets[l.SetIndex(c.nSets)], l.Tag(c.setBits)
}

// Lookup probes for the line without updating statistics or LRU state.
//
//ebcp:hotpath
func (c *Cache) Lookup(l amo.Line) bool {
	set, tag := c.locate(l)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Access probes for the line, counting the access and updating LRU on a
// hit. It returns whether the line was present.
//
//ebcp:hotpath
func (c *Cache) Access(l amo.Line) bool {
	c.stats.Accesses++
	set, tag := c.locate(l)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lru = c.stamp
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill installs the line (e.g. on a demand fill or a prefetch-buffer
// promotion), evicting the LRU way if the set is full. It returns the
// evicted line, whether an eviction occurred, and whether the victim was
// dirty (needs a writeback).
//
//ebcp:hotpath
func (c *Cache) Fill(l amo.Line, dirty bool) (victim amo.Line, evicted, victimDirty bool) {
	set, tag := c.locate(l)
	c.stamp++
	// Already present (e.g. racing fills): refresh.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
			set[i].dirty = set[i].dirty || dirty
			return 0, false, false
		}
	}
	c.stats.Fills++
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			goto place
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim = amo.Line(set[vi].tag<<c.setBits | uint64(l.SetIndex(c.nSets)))
	evicted = true
	victimDirty = set[vi].dirty
	c.stats.Evictions++
	if victimDirty {
		c.stats.DirtyEvictions++
	}
place:
	set[vi] = way{tag: tag, valid: true, dirty: dirty, lru: c.stamp}
	return victim, evicted, victimDirty
}

// Touch refreshes the LRU position of the line if present (used when an
// upper-level hit should keep the L2 copy warm), without counting an
// access.
//
//ebcp:hotpath
func (c *Cache) Touch(l amo.Line) {
	set, tag := c.locate(l)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lru = c.stamp
			return
		}
	}
}

// Invalidate removes the line if present, returning whether it was there.
//
//ebcp:hotpath
func (c *Cache) Invalidate(l amo.Line) bool {
	set, tag := c.locate(l)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}
