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
// caller, which charges it against the interconnect model. As in the
// paper, the table is trained only by the miss stream it later
// predicts: every table starts empty, and none is saved or restored.
//
// Storage is sparse (only touched indices are materialized) but flat:
// entries live in dense byte pages of fixed-size slots, each slot one
// contiguous record — the key line, a 2-byte address count and MaxAddrs
// address fields, MRU first — so a simulated lookup reads one run of
// bytes, as the modelled hardware reads one 64B entry. Every stored line
// takes a 5-byte field while every line the table has been given is
// below 2^40, which covers the whole 45-bit modelled physical space;
// the tuned 8-address record is then 47 bytes. The first key or address
// at or above 2^40 re-encodes every record once with 8-byte fields, so
// the table stays lossless for any amo.Line. The width is chosen by the
// data alone: there is one record format and one code path, keyed on the
// field width. A small open-addressed index of packed
// words maps touched table indices to slots; every indexed slot holds a
// live entry. An 8M-entry idealized table therefore still costs memory
// proportional to its working set, not its architected size, while the
// steady state (update, lookup, touch) runs without pointer chasing or
// per-entry allocation; new storage is only allocated one page (or one
// index doubling) at a time.
package corrtab

import (
	"encoding/binary"
	"math/bits"

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

// pageShift sizes the entry pages: 512 slots per page.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Record fields. A record is the key line, the address count, then
// MaxAddrs addresses, MRU first (their order encodes the 64B entry's LRU
// information). A line field is narrowWidth bytes until the table is
// given a line that does not fit, and wideWidth bytes after.
const (
	narrowWidth = 5
	wideWidth   = 8
	countBytes  = 2
	// pagePad trails every page, so the last field of its last record
	// can be read as one 8-byte word.
	pagePad = 8
)

// layout is the record format at one field width. A field is read as
// the 8-byte word that starts with it, masked to the width. An address
// field is written as the 8-byte word that ends with it, whose low bytes
// repeat the end of the field before it (or of the count), so a write
// never reaches past the record and needs no read.
type layout struct {
	width  int    // bytes per line field
	mask   uint64 // the low 8*width bits: the lines a field holds
	stride int    // bytes per record
}

func newLayout(width, maxAddrs int) layout {
	return layout{
		width:  width,
		mask:   ^uint64(0) >> (64 - 8*width),
		stride: width + countBytes + maxAddrs*width,
	}
}

// tag returns the record's key line.
//
//ebcp:hotpath
func (l layout) tag(rec []byte) amo.Line {
	return amo.Line(binary.LittleEndian.Uint64(rec) & l.mask)
}

// count returns how many addresses the record holds.
//
//ebcp:hotpath
func (l layout) count(rec []byte) int { return int(binary.LittleEndian.Uint16(rec[l.width:])) }

// addr returns the address field that starts at byte off of the record.
//
//ebcp:hotpath
func (l layout) addr(rec []byte, off int) amo.Line {
	return amo.Line(binary.LittleEndian.Uint64(rec[off:]) & l.mask)
}

// load decodes the record's addresses into buf, MRU first, and returns
// them; buf must hold MaxAddrs lines.
//
//ebcp:hotpath
func (l layout) load(rec []byte, buf []amo.Line) []amo.Line {
	buf = buf[:l.count(rec)]
	off := l.width + countBytes
	for i := range buf {
		buf[i] = l.addr(rec, off)
		off += l.width
	}
	return buf
}

// store writes key, the address count n and addrs (at most n, each below
// 2^(8*width)) as the record's first len(addrs) addresses; the fields
// after them keep their contents. The key's word spills into the count
// and the first address, which are written after it, so addrs must not
// be empty while n is positive.
//
//ebcp:hotpath
func (l layout) store(rec []byte, key amo.Line, n int, addrs []amo.Line) {
	binary.LittleEndian.PutUint64(rec, uint64(key))
	binary.LittleEndian.PutUint16(rec[l.width:], uint16(n))
	// word is the 8 bytes that end with the field last written: first
	// the key and the count, then each address, put in the low bytes
	// and rotated to the top. An 8-byte field keeps nothing of the word
	// before it, so at that width the count's shift, taken mod 64, is
	// harmless.
	word := bits.RotateLeft64(uint64(key)&l.mask|uint64(n)<<(8*l.width%64), -8*(l.width+countBytes))
	end := l.width + countBytes
	for _, a := range addrs {
		end += l.width
		word = bits.RotateLeft64(word&^l.mask|uint64(a), -8*l.width)
		binary.LittleEndian.PutUint64(rec[end-8:], word)
	}
}

// Table is the sparse direct-mapped correlation table.
type Table struct {
	cfg  Config
	mask uint64
	lay  layout

	// pages is the append-only slot arena, each page pageSize records
	// back to back plus pagePad bytes; nextSlot is the first unused slot
	// (pages are filled densely in allocation order).
	pages    [][]byte
	nextSlot uint32

	// Open-addressed index: table index -> arena slot, one
	// index<<32 | slot+1 word per binding, so the zero word means empty.
	// The index only grows.
	idx     []uint64
	idxMask uint64
	idxLen  int

	// buf holds one decoded record's addresses: Lookup returns a prefix
	// of it. merged is where Update builds the entry it stores. Both
	// have length MaxAddrs.
	buf, merged []amo.Line

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
		lay:     newLayout(narrowWidth, cfg.MaxAddrs),
		idx:     make([]uint64, initIdx),
		idxMask: initIdx - 1,
		buf:     make([]amo.Line, cfg.MaxAddrs),
		merged:  make([]amo.Line, cfg.MaxAddrs),
	}, nil
}

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

// record returns the arena slot's record, followed by the pagePad bytes
// after it (the next record's or the page padding).
//
//ebcp:hotpath
func (t *Table) record(s uint32) []byte {
	off := int(s&pageMask) * t.lay.stride
	return t.pages[s>>pageShift][off : off+t.lay.stride+pagePad]
}

// newPage returns a zeroed page in the current layout.
func (t *Table) newPage() []byte { return make([]byte, pageSize*t.lay.stride+pagePad) }

// newSlot appends a fresh slot to the arena, materializing a page when the
// current one is full.
func (t *Table) newSlot() uint32 {
	s := t.nextSlot
	if int(s>>pageShift) == len(t.pages) {
		t.pages = append(t.pages, t.newPage())
	}
	t.nextSlot++
	return s
}

// widen re-encodes every record with wideWidth-byte fields. Update calls
// it once, before storing the first line that a narrow field cannot hold.
func (t *Table) widen() {
	narrow := t.lay
	t.lay = newLayout(wideWidth, t.cfg.MaxAddrs)
	for p, old := range t.pages {
		page := t.newPage()
		for i := 0; i < pageSize && p<<pageShift+i < int(t.nextSlot); i++ {
			rec := old[i*narrow.stride:]
			addrs := narrow.load(rec, t.buf)
			t.lay.store(page[i*t.lay.stride:], narrow.tag(rec), len(addrs), addrs)
		}
		t.pages[p] = page
	}
}

// Lookup returns the prefetch addresses stored under key (MRU first), or
// nil when the indexed entry holds a different tag or is empty. The
// returned slice is the table's decode buffer: it stays valid until the
// next call of any Table method, and must not be passed back to Update.
//
//ebcp:hotpath
func (t *Table) Lookup(key amo.Line) []amo.Line {
	t.stats.Lookups++
	s, ok := t.findSlot(t.Index(key))
	if !ok {
		return nil
	}
	rec := t.record(s)
	if t.lay.tag(rec) != key {
		return nil
	}
	t.stats.Hits++
	return t.lay.load(rec, t.buf)
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
	seen := uint64(key)
	for _, a := range addrs {
		seen |= uint64(a)
	}
	if seen > t.lay.mask {
		t.widen()
	}
	idx := t.Index(key)
	s, indexed := t.findSlot(idx)
	if !indexed {
		s = t.newSlot()
		t.indexSlot(idx, s)
	}
	rec := t.record(s)
	n := 0
	if indexed && t.lay.tag(rec) == key {
		n = t.lay.count(rec)
	} else {
		if indexed {
			t.stats.ConflictEvictions++
		}
		t.stats.Allocations++
		if len(addrs) > t.cfg.MaxAddrs {
			addrs = addrs[:t.cfg.MaxAddrs]
		}
	}
	merged := t.lay.merge(t.merged, rec, n, addrs)
	t.lay.store(rec, key, len(merged), merged)
}

// merge writes into out (with capacity MaxAddrs) the entry that inserting
// addrs at the MRU position one by one, lowest priority first, makes of
// the record's first n addresses: addrs without repeats in the order
// given, then the old addresses that addrs does not name, truncated to
// cap(out).
//
//ebcp:hotpath
func (l layout) merge(out []amo.Line, rec []byte, n int, addrs []amo.Line) []amo.Line {
	out = out[:0]
	for _, a := range addrs {
		if len(out) == cap(out) {
			return out
		}
		if !contains(out, a) {
			out = append(out, a)
		}
	}
	given := len(out) // every address addrs names
	off := l.width + countBytes
	for i := 0; i < n && len(out) < cap(out); i++ {
		if a := l.addr(rec, off); !contains(out[:given], a) {
			out = append(out, a)
		}
		off += l.width
	}
	return out
}

//ebcp:hotpath
func contains(s []amo.Line, a amo.Line) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

// Touch records a prefetch-buffer hit: the used address moves to the MRU
// position of the entry at the given index (Section 3.4.3: each prefetch
// buffer entry carries the index of the generating correlation table
// entry so its LRU information can be updated). The fields before it
// move up one as bytes, whatever the width. The caller charges the
// corresponding table write.
//
//ebcp:hotpath
func (t *Table) Touch(index uint64, used amo.Line) {
	s, ok := t.findSlot(index & t.mask)
	if !ok {
		return
	}
	rec, w := t.record(s), t.lay.width
	first := w + countBytes
	for i, n := 0, t.lay.count(rec); i < n; i++ {
		if t.lay.addr(rec, first+i*w) == used {
			copy(rec[first+w:first+(i+1)*w], rec[first:first+i*w])
			t.buf[0] = used
			t.lay.store(rec, t.lay.tag(rec), n, t.buf[:1])
			t.stats.Touches++
			return
		}
	}
}

// Occupancy returns how many distinct indices are materialized (for tests
// and memory accounting): every allocated slot holds one live entry.
func (t *Table) Occupancy() int { return int(t.nextSlot) }
