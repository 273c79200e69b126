package prefetch

import "ebcp/internal/amo"

// SMS is the Spatial Memory Streaming prefetcher of Somogyi et al (the
// paper's fourth comparison point). It exploits spatial correlation: the
// set of lines a code region touches within an aligned 2KB memory region
// recurs when the same instruction touches a new region at the same
// offset. A combined accumulation/filter table records, per active
// region, the bit pattern of lines accessed; when a region's generation
// ends, the pattern is stored in a pattern history table (PHT) keyed by
// the trigger instruction's PC and the trigger access's offset in the
// region. When a later trigger matches, all lines of the recorded
// pattern are streamed into the prefetch buffer (up to 32 lines, the
// whole region).
//
// Configuration from Section 5.3: 2KB spatial regions, a 128-entry
// combined accumulation/filter table, and a 16K-entry 16-way PHT
// (~128KB on chip). SMS prefetches data only — the paper points out its
// weakness on TPC-W and SPECjAppServer2004 comes precisely from not
// prefetching instruction misses.
type SMS struct {
	// RegionBytes is the spatial region size (2KB).
	RegionBytes uint64
	// MaxPrefetch bounds prefetches per PHT match (32 = whole region).
	MaxPrefetch int

	at    []atEntry // accumulation/filter table
	pht   *smsPHT
	stamp uint64
}

type atEntry struct {
	valid   bool
	region  amo.Region
	key     uint64 // PC+offset trigger key
	pattern uint32 // lines touched (bit per line)
	lru     uint64
}

type smsPHT struct {
	sets  int
	ways  int
	lines []smsPHTWay
	stamp uint64
}

type smsPHTWay struct {
	key     uint64
	pattern uint32
	valid   bool
	lru     uint64
}

func newSMSPHT(sets, ways int) *smsPHT {
	return &smsPHT{sets: sets, ways: ways, lines: make([]smsPHTWay, sets*ways)}
}

//ebcp:hotpath
func (p *smsPHT) set(key uint64) []smsPHTWay {
	si := int(key % uint64(p.sets))
	return p.lines[si*p.ways : (si+1)*p.ways]
}

//ebcp:hotpath
func (p *smsPHT) lookup(key uint64) (uint32, bool) {
	set := p.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			p.stamp++
			set[i].lru = p.stamp
			return set[i].pattern, true
		}
	}
	return 0, false
}

//ebcp:hotpath
func (p *smsPHT) update(key uint64, pattern uint32) {
	set := p.set(key)
	p.stamp++
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].pattern = pattern
			set[i].lru = p.stamp
			return
		}
	}
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
place:
	set[vi] = smsPHTWay{key: key, pattern: pattern, valid: true, lru: p.stamp}
}

// NewSMS builds the Section 5.3 SMS configuration.
func NewSMS() *SMS {
	return &SMS{
		RegionBytes: 2048,
		MaxPrefetch: 32,
		at:          make([]atEntry, 128),
		pht:         newSMSPHT(1024, 16), // 16K entries total
	}
}

// Name implements Prefetcher.
func (s *SMS) Name() string { return "SMS" }

//ebcp:hotpath
func (s *SMS) triggerKey(pc amo.PC, offset int) uint64 {
	h := uint64(pc)*0x9e3779b97f4a7c15 + uint64(offset)
	return h ^ (h >> 31)
}

// OnAccess implements Prefetcher.
//
//ebcp:hotpath
func (s *SMS) OnAccess(a Access, ctx *Context) {
	if a.IFetch {
		return // SMS does not prefetch instructions
	}
	region := amo.RegionOf(a.Line.Addr(), s.RegionBytes)
	offset := amo.OffsetInRegion(a.Line.Addr(), s.RegionBytes)
	s.stamp++

	// Active region: accumulate.
	for i := range s.at {
		e := &s.at[i]
		if e.valid && e.region == region {
			e.pattern |= 1 << uint(offset)
			e.lru = s.stamp
			return
		}
	}

	// New region generation: this access is the trigger.
	key := s.triggerKey(a.PC, offset)
	if pattern, ok := s.pht.lookup(key); ok {
		s.streamRegion(a, region, offset, pattern, ctx)
	}

	// Allocate an accumulation entry, committing the evicted generation's
	// pattern to the PHT.
	vi := 0
	for i := range s.at {
		if !s.at[i].valid {
			vi = i
			goto place
		}
		if s.at[i].lru < s.at[vi].lru {
			vi = i
		}
	}
	if v := &s.at[vi]; v.valid {
		s.commit(v)
	}
place:
	s.at[vi] = atEntry{
		valid:   true,
		region:  region,
		key:     key,
		pattern: 1 << uint(offset),
		lru:     s.stamp,
	}
}

// commit stores a finished generation's pattern (only patterns with
// spatial content — more than the trigger line — are worth remembering).
//
//ebcp:hotpath
func (s *SMS) commit(e *atEntry) {
	if popcount32(e.pattern) > 1 {
		s.pht.update(e.key, e.pattern)
	}
}

//ebcp:hotpath
func (s *SMS) streamRegion(a Access, region amo.Region, triggerOffset int, pattern uint32, ctx *Context) {
	base := region.Base(s.RegionBytes)
	issued := 0
	for off := 0; off < amo.LinesPerRegion(s.RegionBytes) && issued < s.MaxPrefetch; off++ {
		if off == triggerOffset || pattern&(1<<uint(off)) == 0 {
			continue
		}
		line := amo.LineOf(base + amo.Addr(off*amo.LineSize))
		if ctx.Prefetch(a.Now, line, NoTable) {
			issued++
		}
	}
}

//ebcp:hotpath
func popcount32(v uint32) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}
