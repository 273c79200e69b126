package prefetch

import (
	"fmt"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Chain is a chaining correlation prefetcher in the style of the
// memory-side user-level-thread engines (Solihin's follow-on work): it
// learns trigger→successor pairs from the off-chip miss stream —
// every miss becomes a successor of each of the Window misses that
// preceded it — and on a trigger miss issues the trigger's top-Degree
// successors when the correlation-table read returns. The chaining is
// what distinguishes it from the one-shot pair schemes: when a
// prefetched line is *used* (a prefetch-buffer hit), the engine reads
// that line's own entry and issues its successors too, so one accurate
// trigger keeps the chain running ahead of the demand stream without
// waiting for the next off-chip miss.
//
// Like Solihin's engine it is memory-side: it trains on the interleaved
// off-chip stream (prefetch-buffer hits keep training — they were
// misses in the unprefetched stream) and pays a table read per issue
// window plus a read-modify-write per trained miss.
type Chain struct {
	label string
	cfg   ChainConfig

	table *ChainTable
	// history is the ring of the most recent Window off-chip lines;
	// histPos is the slot the next line lands in.
	history []amo.Line
	histLen int
	histPos int
	// scratch receives AppendTopK's successor picks; capacity Degree is
	// reserved in NewChain, so the hot path never reallocates.
	scratch []amo.Line
}

// ChainConfig shapes a chaining correlation prefetcher.
type ChainConfig struct {
	// Entries is the trigger-entry count of the correlation table
	// (power of two; FIFO replacement).
	Entries int
	// Successors bounds the successor list kept per trigger (1..64).
	Successors int
	// Window is the miss-distance window: each off-chip miss trains the
	// entries of the Window misses before it (1..64).
	Window int
	// Degree is how many successors are issued per trigger or chain
	// event (1..Successors).
	Degree int
}

// DefaultChainConfig is the tuned shape: a 64K-entry table keeping
// eight successor candidates per trigger, pairing across a four-miss
// window and issuing the top four.
func DefaultChainConfig() ChainConfig {
	return ChainConfig{Entries: 64 << 10, Successors: 8, Window: 4, Degree: 4}
}

// NewChain builds a chaining correlation prefetcher. A bad shape
// returns an ErrInvalidConfig-classified error.
func NewChain(cfg ChainConfig) (*Chain, error) {
	if cfg.Window <= 0 || cfg.Window > maxChainWindow {
		return nil, ebcperr.Invalidf("prefetch: chain window %d out of [1, %d]", cfg.Window, maxChainWindow)
	}
	if cfg.Degree <= 0 || cfg.Degree > cfg.Successors {
		return nil, ebcperr.Invalidf("prefetch: chain degree %d out of [1, successors %d]", cfg.Degree, cfg.Successors)
	}
	table, err := NewChainTable(ChainTableConfig{Entries: cfg.Entries, Successors: cfg.Successors})
	if err != nil {
		return nil, err
	}
	return &Chain{
		label:   fmt.Sprintf("chain %d,%d", cfg.Window, cfg.Degree),
		cfg:     cfg,
		table:   table,
		history: make([]amo.Line, cfg.Window),
		scratch: make([]amo.Line, 0, cfg.Degree),
	}, nil
}

// Name implements Prefetcher.
func (c *Chain) Name() string { return c.label }

// OnAccess implements Prefetcher.
//
//ebcp:hotpath
func (c *Chain) OnAccess(a Access, ctx *Context) {
	// Memory-side engine: train on the off-chip stream. Prefetch-buffer
	// hits were misses in the unprefetched stream, so they keep feeding
	// the successor lists; L2 hits and merged misses never leave the chip.
	if a.L2Hit || a.MissMerged {
		return
	}

	// Train: this line is a successor of each of the last Window
	// off-chip lines, newest pairing first. The engine performs one
	// read-modify-write of the table per trained miss.
	ctx.TableRead(a.Now)
	for i := 1; i <= c.histLen; i++ {
		prev := c.history[(c.histPos-i+c.cfg.Window)%c.cfg.Window]
		c.table.Update(prev, a.Line)
	}
	ctx.TableWrite(a.Now)

	// Slide the window ring.
	c.history[c.histPos] = a.Line
	c.histPos = (c.histPos + 1) % c.cfg.Window
	if c.histLen < c.cfg.Window {
		c.histLen++
	}

	switch {
	case a.PBHit && !a.PBPartial:
		// Chain: the prefetched line was used, so its own successors are
		// the next links — issue them without waiting for a miss.
		c.issue(a.Now, a.Line, ctx)
	case a.Miss:
		// Trigger: a real off-chip miss reads its entry and issues the
		// top-Degree successors when the table read returns.
		c.issue(a.Now, a.Line, ctx)
	}
}

// issue reads the trigger's entry from the memory-resident table and
// issues its top-Degree successors at the read's completion time.
//
//ebcp:hotpath
func (c *Chain) issue(now uint64, trigger amo.Line, ctx *Context) {
	c.scratch = c.table.AppendTopK(c.scratch[:0], trigger, c.cfg.Degree)
	if len(c.scratch) == 0 {
		return
	}
	completion, ok := ctx.TableRead(now)
	if !ok {
		return // table read dropped: no prefetches this event
	}
	for _, line := range c.scratch {
		ctx.Prefetch(completion, line, NoTable)
	}
}

// maxChainWindow bounds the miss-distance window; maxChainSuccessors
// bounds the per-trigger successor list (the top-K scan tracks picked
// entries in a 64-bit mask).
const (
	maxChainWindow     = 64
	maxChainSuccessors = 64
)

// ChainTableConfig shapes a ChainTable.
type ChainTableConfig struct {
	// Entries is the trigger-entry capacity (power of two).
	Entries int
	// Successors bounds the per-trigger successor list (1..64).
	Successors int
}

// Validate reports configuration errors, classified ErrInvalidConfig.
func (c ChainTableConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return ebcperr.Invalidf("prefetch: chain table entries %d must be a positive power of two", c.Entries)
	}
	if c.Successors <= 0 || c.Successors > maxChainSuccessors {
		return ebcperr.Invalidf("prefetch: chain table successors %d out of [1, %d]", c.Successors, maxChainSuccessors)
	}
	return nil
}

// ChainTable is the flat trigger→successor store of the chaining
// prefetcher: a FIFO ring of trigger entries indexed by a fixed-size
// open-addressed map (the GHB slot-ring idiom — the post-construction
// hot path is map-free and allocation-free). Each entry keeps a bounded
// list of successor lines with saturating popularity counts in
// insertion order; inserting into a full list first halves every count
// (aging) and then evicts the weakest survivor (lowest count, earliest
// position on ties), so the replacement is deterministic and a naive
// oracle can replay it exactly (TestChainTableDifferential).
type ChainTable struct {
	cfg ChainTableConfig

	tags   []amo.Line
	lens   []uint16
	lines  []amo.Line // slot s successor i at s*Successors+i
	counts []uint8
	n      int // live slots
	pos    int // FIFO hand (next eviction when full)
	idx    oaMap
}

// NewChainTable builds an empty table. A bad shape returns an
// ErrInvalidConfig-classified error.
func NewChainTable(cfg ChainTableConfig) (*ChainTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ChainTable{
		cfg:    cfg,
		tags:   make([]amo.Line, cfg.Entries),
		lens:   make([]uint16, cfg.Entries),
		lines:  make([]amo.Line, cfg.Entries*cfg.Successors),
		counts: make([]uint8, cfg.Entries*cfg.Successors),
		idx:    newOAMap(cfg.Entries),
	}, nil
}

// slot returns the ring slot holding trigger, allocating (with FIFO
// eviction) when alloc is set; -1 when absent and not allocating.
//
//ebcp:hotpath
func (t *ChainTable) slot(trigger amo.Line, alloc bool) int32 {
	if s, ok := t.idx.get(uint64(trigger)); ok {
		return s
	}
	if !alloc {
		return -1
	}
	var s int32
	if t.n < t.cfg.Entries {
		s = int32(t.n)
		t.n++
	} else {
		s = int32(t.pos)
		t.idx.del(uint64(t.tags[s]))
		t.pos = (t.pos + 1) % t.cfg.Entries
	}
	t.tags[s] = trigger
	t.lens[s] = 0
	t.idx.put(uint64(trigger), s)
	return s
}

// Update records succ as a successor of trigger: a present successor's
// count saturates upward; a new successor appends while there is room;
// a full list ages (every count halves) and evicts the weakest
// survivor before appending the newcomer at count 1.
//
//ebcp:hotpath
func (t *ChainTable) Update(trigger, succ amo.Line) {
	s := t.slot(trigger, true)
	base := int(s) * t.cfg.Successors
	n := int(t.lens[s])
	for i := 0; i < n; i++ {
		if t.lines[base+i] == succ {
			if t.counts[base+i] < 255 {
				t.counts[base+i]++
			}
			return
		}
	}
	if n < t.cfg.Successors {
		t.lines[base+n] = succ
		t.counts[base+n] = 1
		t.lens[s] = uint16(n + 1)
		return
	}
	// Aging: halve every count (floored at 1 — live successors always
	// carry a positive count, the invariant the codec enforces), then
	// evict the weakest survivor (first position wins ties) and append
	// the newcomer in its place order.
	evict := 0
	for i := 0; i < n; i++ {
		if t.counts[base+i] > 1 {
			t.counts[base+i] >>= 1
		}
		if t.counts[base+i] < t.counts[base+evict] {
			evict = i
		}
	}
	copy(t.lines[base+evict:base+n-1], t.lines[base+evict+1:base+n])
	copy(t.counts[base+evict:base+n-1], t.counts[base+evict+1:base+n])
	t.lines[base+n-1] = succ
	t.counts[base+n-1] = 1
}

// AppendTopK appends trigger's k most popular successors to dst
// (highest count first, earliest position on ties) and returns the
// extended slice. An unknown trigger appends nothing.
//
//ebcp:hotpath
func (t *ChainTable) AppendTopK(dst []amo.Line, trigger amo.Line, k int) []amo.Line {
	s := t.slot(trigger, false)
	if s < 0 {
		return dst
	}
	base := int(s) * t.cfg.Successors
	n := int(t.lens[s])
	if k > n {
		k = n
	}
	var picked uint64
	for out := 0; out < k; out++ {
		best := -1
		for i := 0; i < n; i++ {
			if picked&(1<<uint(i)) != 0 {
				continue
			}
			if best < 0 || t.counts[base+i] > t.counts[base+best] {
				best = i
			}
		}
		picked |= 1 << uint(best)
		dst = append(dst, t.lines[base+best])
	}
	return dst
}
