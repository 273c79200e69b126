// Package corrtab models the main-memory-resident correlation table shared
// by the epoch-based correlation prefetcher and Solihin's memory-side
// prefetcher.
//
// The table is direct-mapped (Section 3.4.2: "to reduce the memory
// bandwidth needed to access the table, it is direct-mapped") and each
// entry fits within the 64B unit of memory transfer: a tag, LRU
// information, and a bounded list of compressed prefetch addresses. The
// on-chip prefetcher control computes entry addresses by adding the index
// to the table's base physical address; here we model the entry *contents*
// and leave the memory traffic (reads, update writes, LRU writes) to the
// caller, which charges it against the interconnect model.
//
// Storage is sparse (only touched indices are materialized) but flat:
// entries live in dense pages of fixed-size slots, each slot one
// contiguous record — the tag, the address count and an inline
// MaxAddrs-line address array — so a simulated lookup reads one run of
// words, as the modelled hardware reads one 64B entry. A small
// open-addressed index of packed words maps touched table indices to
// slots; every indexed slot holds a live entry. An 8M-entry idealized
// table therefore still costs memory proportional to its working set,
// not its architected size, while the steady state (update, lookup,
// touch) runs without pointer chasing or per-entry allocation; new
// storage is only allocated one page (or one index doubling) at a time.
package corrtab

import (
	"sort"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Config shapes a correlation table.
type Config struct {
	// Entries is the number of direct-mapped entries (a power of two).
	// One million entries (64MB of main memory) is the paper's tuned
	// configuration; the idealized design-space starting point is 8M.
	Entries int
	// MaxAddrs bounds prefetch addresses per entry. Eight fit comfortably
	// in a 64B line with compressed addresses (Section 3.4.2); the
	// idealized configuration stores 32 (entries spanning multiple lines).
	MaxAddrs int
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.Entries <= 0 || !amo.IsPow2(uint64(c.Entries)) {
		return ebcperr.Invalidf("corrtab: entries %d must be a positive power of two", c.Entries)
	}
	if uint64(c.Entries) > maxEntries {
		return ebcperr.Invalidf("corrtab: entries %d exceeds limit %d", c.Entries, maxEntries)
	}
	if c.MaxAddrs <= 0 {
		return ebcperr.Invalidf("corrtab: max addrs %d must be positive", c.MaxAddrs)
	}
	if c.MaxAddrs > maxAddrsLimit {
		return ebcperr.Invalidf("corrtab: max addrs %d exceeds limit %d", c.MaxAddrs, maxAddrsLimit)
	}
	return nil
}

// maxAddrsLimit bounds per-entry address capacity (real configurations
// use 8 or 32).
const maxAddrsLimit = 1 << 15

// maxEntries bounds the table size: table indices and slot ids are
// 32-bit, packed two to an index word.
const maxEntries uint64 = 1 << 32

// Stats counts table activity.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Allocations uint64
	// ConflictEvictions counts allocations that displaced a live entry of
	// a different tag (direct-mapped conflict).
	ConflictEvictions uint64
	Updates           uint64
	Touches           uint64
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// pageShift sizes the entry pages: 512 slots per page.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// A slot's record is recAddrs+MaxAddrs words: the full key line, the
// address count, then the addresses, MRU first (their order encodes the
// 64B entry's LRU information).
const (
	recTag   = 0
	recMeta  = 1
	recAddrs = 2
)

// Table is the sparse direct-mapped correlation table.
type Table struct {
	cfg    Config
	mask   uint64
	stride int // words per record

	// pages is the append-only slot arena, each page pageSize records
	// back to back; nextSlot is the first unused slot (pages are filled
	// densely in allocation order).
	pages    [][]amo.Line
	nextSlot uint32

	// Open-addressed index: table index -> arena slot, one
	// index<<32 | slot+1 word per binding, so the zero word means empty.
	// The index only grows.
	idx     []uint64
	idxMask uint64
	idxLen  int

	stats Stats
}

// New builds a table. It returns an ErrInvalidConfig-classified error if
// the configuration fails Validate.
func New(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const initIdx = 1024
	return &Table{
		cfg:     cfg,
		mask:    uint64(cfg.Entries - 1),
		stride:  recAddrs + cfg.MaxAddrs,
		idx:     make([]uint64, initIdx),
		idxMask: initIdx - 1,
	}, nil
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *Table) ResetStats() { t.stats = Stats{} }

// Index returns the direct-mapped index of a key line.
//
//ebcp:hotpath
func (t *Table) Index(key amo.Line) uint64 { return uint64(key) & t.mask }

// idxHash spreads table indices over the open-addressed index.
//
//ebcp:hotpath
func idxHash(idx uint64) uint64 {
	h := idx * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

// findSlot returns the arena slot for a table index, if indexed. The
// slot is the low half minus one, wrapping, so slot 2^32-1 still
// decodes; only its binding to index 0 would read as the empty word, and
// that needs all 2^32 entries of the largest table materialized (over
// 96 GiB of records).
//
//ebcp:hotpath
func (t *Table) findSlot(idx uint64) (uint32, bool) {
	for i := idxHash(idx) & t.idxMask; ; i = (i + 1) & t.idxMask {
		w := t.idx[i]
		if w == 0 {
			return 0, false
		}
		if w>>32 == idx {
			return uint32(w) - 1, true
		}
	}
}

// indexSlot binds a table index to an arena slot, growing the index when
// it passes half full.
func (t *Table) indexSlot(idx uint64, slot uint32) {
	if t.idxLen*2 >= len(t.idx) {
		t.growIndex()
	}
	i := idxHash(idx) & t.idxMask
	for t.idx[i] != 0 {
		i = (i + 1) & t.idxMask
	}
	t.idx[i] = idx<<32 | uint64(slot+1)
	t.idxLen++
}

func (t *Table) growIndex() {
	old := t.idx
	n := len(old) * 2
	t.idx = make([]uint64, n)
	t.idxMask = uint64(n - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		j := idxHash(w>>32) & t.idxMask
		for t.idx[j] != 0 {
			j = (j + 1) & t.idxMask
		}
		t.idx[j] = w
	}
}

// record returns the arena slot's record.
//
//ebcp:hotpath
func (t *Table) record(s uint32) []amo.Line {
	off := int(s&pageMask) * t.stride
	return t.pages[s>>pageShift][off : off+t.stride : off+t.stride]
}

// newSlot appends a fresh slot to the arena, materializing a page when the
// current one is full.
func (t *Table) newSlot() uint32 {
	s := t.nextSlot
	if int(s>>pageShift) == len(t.pages) {
		t.pages = append(t.pages, make([]amo.Line, pageSize*t.stride))
	}
	t.nextSlot++
	return s
}

// Lookup returns the prefetch addresses stored under key (MRU first), or
// nil when the indexed entry holds a different tag or is empty. The
// returned slice aliases table state and must not be retained across
// updates.
//
//ebcp:hotpath
func (t *Table) Lookup(key amo.Line) []amo.Line {
	t.stats.Lookups++
	s, ok := t.findSlot(t.Index(key))
	if !ok {
		return nil
	}
	rec := t.record(s)
	if rec[recTag] != key {
		return nil
	}
	t.stats.Hits++
	return rec[recAddrs : recAddrs+int(rec[recMeta])]
}

// Update merges addrs into the entry for key, in the order given (highest
// priority first — the paper gives priority to the misses of the older
// epoch). Present addresses move to MRU; new ones are inserted at MRU,
// displacing the LRU addresses when the entry is full. A tag mismatch
// reallocates the entry (direct-mapped conflict overwrite). A fresh
// entry is told apart by its index not being bound yet, never by a zero
// tag: line 0 is a valid key.
//
//ebcp:hotpath
func (t *Table) Update(key amo.Line, addrs []amo.Line) {
	t.stats.Updates++
	idx := t.Index(key)
	s, indexed := t.findSlot(idx)
	if !indexed {
		s = t.newSlot()
		t.indexSlot(idx, s)
	}
	rec := t.record(s)
	n := int(rec[recMeta])
	if !indexed || rec[recTag] != key {
		if indexed {
			t.stats.ConflictEvictions++
		}
		t.stats.Allocations++
		rec[recTag] = key
		n = 0
		if len(addrs) > t.cfg.MaxAddrs {
			addrs = addrs[:t.cfg.MaxAddrs]
		}
	}
	// Merge, highest priority last inserted so it ends most-recently-used:
	// iterate in reverse so addrs[0] lands at the front.
	span := rec[recAddrs:]
	for i := len(addrs) - 1; i >= 0; i-- {
		n = promote(span, n, addrs[i])
	}
	rec[recMeta] = amo.Line(n)
}

// promote moves a to the MRU position of the n-entry span, inserting it if
// absent and evicting the LRU address if the span is at capacity. It
// returns the new entry count.
//
//ebcp:hotpath
func promote(span []amo.Line, n int, a amo.Line) int {
	for i := 0; i < n; i++ {
		if span[i] == a {
			copy(span[1:i+1], span[:i])
			span[0] = a
			return n
		}
	}
	if n < len(span) {
		n++
	}
	copy(span[1:n], span)
	span[0] = a
	return n
}

// Touch records a prefetch-buffer hit: the used address moves to the MRU
// position of the entry at the given index (Section 3.4.3: each prefetch
// buffer entry carries the index of the generating correlation table
// entry so its LRU information can be updated). The caller charges the
// corresponding table write.
//
//ebcp:hotpath
func (t *Table) Touch(index uint64, used amo.Line) {
	s, ok := t.findSlot(index & t.mask)
	if !ok {
		return
	}
	rec := t.record(s)
	n, span := int(rec[recMeta]), rec[recAddrs:]
	for i := 0; i < n; i++ {
		if span[i] == used {
			copy(span[1:i+1], span[:i])
			span[0] = used
			t.stats.Touches++
			return
		}
	}
}

// Occupancy returns how many distinct indices are materialized (for tests
// and memory accounting): every allocated slot holds one live entry.
func (t *Table) Occupancy() int { return int(t.nextSlot) }

// Row is one live entry in export form: the full key line (whose
// direct-mapped index is Tag & (Entries-1)) and its prefetch addresses,
// MRU first — exactly the order Lookup returns.
type Row struct {
	Tag   amo.Line
	Addrs []amo.Line
}

// Rows exports every live entry, sorted by table index. Since the table
// is direct-mapped, at most one live entry exists per index, making the
// order a deterministic function of the table's contents — independent
// of insertion order and arena layout. The serializer depends on this
// determinism for byte-stable output.
func (t *Table) Rows() []Row {
	rows := make([]Row, 0, t.nextSlot)
	for s := uint32(0); s < t.nextSlot; s++ {
		rec := t.record(s)
		rows = append(rows, Row{
			Tag:   rec[recTag],
			Addrs: append([]amo.Line(nil), rec[recAddrs:recAddrs+int(rec[recMeta])]...),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		return t.Index(rows[i].Tag) < t.Index(rows[j].Tag)
	})
	return rows
}
