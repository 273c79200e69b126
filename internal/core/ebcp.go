// Package core implements the paper's contribution: the epoch-based
// correlation prefetcher (EBCP).
//
// EBCP keeps its multi-megabyte correlation table in main memory and hides
// the table-access latency under epochs: the first miss of epoch i looks
// the table up; the read returns while epoch i's off-chip accesses are
// outstanding; the prefetches issue during epoch i+1; and the entry's
// contents — the miss addresses of epochs i+2 and i+3, recorded by the
// Epoch Miss Address Buffer — arrive just in time. By storing *entire
// epochs* of misses (and skipping the untimely epochs i and i+1), EBCP
// spends its predictor state only on misses whose removal eliminates whole
// epochs, which is what determines performance under the epoch MLP model.
//
// The only on-chip structures are the 4-entry EMAB, the small prefetch
// buffer (shared plumbing in internal/cache) and the prefetcher control
// logic, all off the critical path.
package core

import (
	"ebcp/internal/amo"
	"ebcp/internal/corrtab"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
)

// Config parameterizes the epoch-based correlation prefetcher.
type Config struct {
	// TableEntries is the number of direct-mapped main-memory correlation
	// table entries (1M tuned, 8M idealized).
	TableEntries int `json:"table_entries"`
	// TableMaxAddrs bounds prefetch addresses per table entry (8 fit in a
	// 64B transfer unit; 32 in the idealized configuration).
	TableMaxAddrs int `json:"table_max_addrs"`
	// Degree is the maximum prefetches issued per correlation table match.
	Degree int `json:"degree"`
	// EMABEpochs is the Epoch Miss Address Buffer depth (4 in the paper).
	EMABEpochs int `json:"emab_epochs"`
	// VirtualWindow is the instruction distance that separates virtual
	// epochs once prefetching removes the real ones; it mirrors the reorder
	// buffer size that bounds real epochs (128).
	VirtualWindow uint64 `json:"virtual_window"`
	// Cores is the number of hardware threads the prefetcher control
	// tracks (Section 3.2: the control sits in front of the core-to-L2
	// crossbar so it sees each thread's whole miss stream separately; the
	// correlation table itself is shared). 0 means 1.
	Cores int `json:"-"`
	// Minus selects the handicapped EBCP-minus variant of Section 5.3,
	// which stores the misses of epochs i+1 and i+2 after the trigger
	// (including the untimely next epoch) instead of i+2 and i+3.
	Minus bool `json:"minus"`
	// LRUWriteback enables the table write that records prefetch-buffer
	// hits in the entry's LRU information (on by default in the paper).
	LRUWriteback bool `json:"lru_writeback"`
	// NoVirtualEpochs disables the prefetch-buffer-hit boundary rule (an
	// ablation): lookups and EMAB rotation then happen only at *real*
	// epoch triggers, so the lookup chain starves as soon as prefetching
	// starts removing epochs. The paper's "first L2 miss (or prefetch
	// buffer hit) in a new epoch" rule is what this switch turns off.
	NoVirtualEpochs bool `json:"no_virtual_epochs"`
}

// DefaultConfig is the tuned configuration of Section 5.2: one million
// table entries, prefetch degree 8, 4-entry EMAB.
func DefaultConfig() Config {
	return Config{
		TableEntries:  1 << 20,
		TableMaxAddrs: 8,
		Degree:        8,
		EMABEpochs:    4,
		VirtualWindow: 128,
		LRUWriteback:  true,
	}
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.TableEntries <= 0 || !amo.IsPow2(uint64(c.TableEntries)) {
		return ebcperr.Invalidf("core: table entries %d must be a positive power of two", c.TableEntries)
	}
	if c.TableMaxAddrs <= 0 || c.Degree <= 0 {
		return ebcperr.Invalidf("core: table addrs %d and degree %d must be positive", c.TableMaxAddrs, c.Degree)
	}
	if c.EMABEpochs < 3 {
		return ebcperr.Invalidf("core: EMAB needs at least 3 epochs, got %d", c.EMABEpochs)
	}
	if c.VirtualWindow == 0 {
		return ebcperr.Invalidf("core: virtual window must be positive")
	}
	if c.Cores < 0 {
		return ebcperr.Invalidf("core: cores %d must be non-negative", c.Cores)
	}
	return nil
}

// emabMaxAddrs bounds the misses recorded per EMAB epoch entry.
const emabMaxAddrs = 32

// cores returns the effective hardware-thread count.
func (c Config) cores() int {
	if c.Cores <= 0 {
		return 1
	}
	return c.Cores
}

// Stats counts EBCP-specific activity (memory traffic is accounted by the
// prefetch context; table internals by the corrtab stats).
type Stats struct {
	// Boundaries counts epoch boundaries observed (real + virtual).
	Boundaries uint64
	// RealBoundaries counts boundaries caused by real epoch triggers.
	RealBoundaries uint64
	// Lookups / Matches count prediction-side table reads and hits.
	Lookups uint64
	Matches uint64
	// Trainings counts table update attempts; LostUpdates those whose
	// write was dropped for bandwidth.
	Trainings   uint64
	LostUpdates uint64
	// LRUTouches counts prefetch-buffer hits folded into entry LRU state.
	LRUTouches uint64
}

// emabEntry records one epoch in the Epoch Miss Address Buffer: the
// epoch's trigger line (its first off-chip access — a real miss, or the
// prefetch-buffer hit that stands in for it once prefetching removes the
// miss) and the epoch's recorded miss addresses.
type emabEntry struct {
	key    amo.Line
	hasKey bool
	misses []amo.Line
}

func (e *emabEntry) reset() {
	e.hasKey = false
	e.misses = e.misses[:0]
}

// coreState is the per-hardware-thread tracking state of the prefetcher
// control: an EMAB and the virtual-epoch cursor. The correlation table is
// shared across threads.
type coreState struct {
	// emab is a ring buffer: entry(0) records the current epoch, entry(k)
	// the k-th previous one; head is the ring position of entry(0).
	// Entries are reused across rotations (rotation just moves head — at
	// one rotation per epoch, copying the entries would be a measurable
	// share of the simulator's hot path).
	emab []emabEntry
	head int

	// Virtual-epoch tracking: the instruction count of the last boundary.
	vTrigger    uint64
	sawBoundary bool
}

// entry returns the EMAB entry of the k-th previous epoch (0 = current).
func (cs *coreState) entry(k int) *emabEntry {
	return &cs.emab[(cs.head+k)%len(cs.emab)]
}

// EBCP is the epoch-based correlation prefetcher.
type EBCP struct {
	cfg   Config
	table *corrtab.Table
	cores []coreState

	// payload is the reusable training scratch buffer (corrtab.Update
	// copies out of it, so reuse across trainings is safe).
	payload []amo.Line

	stats Stats
}

var _ prefetch.Prefetcher = (*EBCP)(nil)

// New builds an EBCP instance. It returns an ErrInvalidConfig-classified
// error if the configuration fails Validate.
func New(cfg Config) (*EBCP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cores := make([]coreState, cfg.cores())
	for c := range cores {
		emab := make([]emabEntry, cfg.EMABEpochs)
		for i := range emab {
			emab[i].misses = make([]amo.Line, 0, emabMaxAddrs)
		}
		cores[c].emab = emab
	}
	table, err := corrtab.New(corrtab.Config{Entries: cfg.TableEntries, MaxAddrs: cfg.TableMaxAddrs})
	if err != nil {
		return nil, err
	}
	return &EBCP{
		cfg:     cfg,
		table:   table,
		cores:   cores,
		payload: make([]amo.Line, 0, 2*emabMaxAddrs),
	}, nil
}

// Name implements prefetch.Prefetcher.
func (e *EBCP) Name() string {
	if e.cfg.Minus {
		return "EBCP minus"
	}
	return "EBCP"
}

// Config returns the prefetcher's configuration.
func (e *EBCP) Config() Config { return e.cfg }

// Stats returns a copy of the counters.
func (e *EBCP) Stats() Stats { return e.stats }

// ResetStats zeroes EBCP and table counters.
func (e *EBCP) ResetStats() {
	e.stats = Stats{}
	e.table.ResetStats()
}

// Table exposes the correlation table (tests, reporting).
func (e *EBCP) Table() *corrtab.Table { return e.table }

// boundary decides whether this access begins a new (real or virtual)
// epoch. Real epoch triggers do, and once prefetching removes whole
// epochs the chain is sustained by prefetch-buffer hits: a hit or miss
// that would have been a pointer-chase trigger (dependent), or one that
// falls outside the instruction window of the current virtual epoch,
// starts a new one. A real miss landing *inside* the current virtual
// epoch's window (e.g. a cold line whose siblings were all prefetched)
// joins the current entry rather than slicing the EMAB: the instruction
// window keeps real and virtual epoch segmentation consistent.
func (e *EBCP) boundary(cs *coreState, a prefetch.Access) bool {
	if !a.Miss && !a.PBHit {
		return false
	}
	if e.cfg.NoVirtualEpochs {
		return a.NewEpoch
	}
	if !cs.sawBoundary {
		return true
	}
	if a.Dependent {
		return true
	}
	return a.Inst-cs.vTrigger >= e.cfg.VirtualWindow
}

// OnAccess implements prefetch.Prefetcher. An access from a thread the
// control does not track (Config.Cores too small for the machine) is
// reported on the Context and ignored.
func (e *EBCP) OnAccess(a prefetch.Access, ctx *prefetch.Context) {
	if a.Core < 0 || a.Core >= len(e.cores) {
		ctx.RejectThread(e.Name(), a.Core, len(e.cores))
		return
	}
	if a.L2Hit || a.MissMerged {
		return
	}
	cs := &e.cores[a.Core]

	if e.boundary(cs, a) {
		e.stats.Boundaries++
		if a.NewEpoch {
			e.stats.RealBoundaries++
		}
		cs.vTrigger = a.Inst
		cs.sawBoundary = true
		e.train(cs, a.Now, ctx)
		e.rotate(cs)
		e.lookup(a, ctx)
	}

	cur := cs.entry(0)
	if !cur.hasKey {
		// The epoch's first off-chip access keys the entry, whether it is
		// a real miss or the prefetch-buffer hit standing in for one.
		cur.key = a.Line
		cur.hasKey = true
	}
	switch {
	case a.Miss && !a.MissMerged:
		// Record the miss in the current epoch's EMAB entry.
		if len(cur.misses) < emabMaxAddrs {
			cur.misses = append(cur.misses, a.Line)
		}
	case a.PBHit:
		// Fold the hit into the generating entry's LRU information; the
		// update is a (lowest-priority) table write.
		if e.cfg.LRUWriteback && a.PBTableIndex >= 0 {
			e.table.Touch(uint64(a.PBTableIndex), a.Line)
			e.stats.LRUTouches++
			ctx.TableWrite(a.Now)
		}
	}
}

// train inspects the oldest EMAB entry and updates the correlation table:
// the oldest epoch's first miss is the key; the payload is the misses of
// the two latest epochs (priority to the older of the two). EBCP-minus
// instead stores the two epochs immediately after the trigger.
func (e *EBCP) train(cs *coreState, now uint64, ctx *prefetch.Context) {
	n := len(cs.emab)
	oldest := cs.entry(n - 1)
	if !oldest.hasKey {
		return // empty epoch slot: nothing to key on
	}
	key := oldest.key

	var older, newer []amo.Line
	if e.cfg.Minus {
		older, newer = cs.entry(n-2).misses, cs.entry(n-3).misses
	} else {
		older, newer = cs.entry(1).misses, cs.entry(0).misses
	}
	if len(older)+len(newer) == 0 {
		return
	}
	payload := append(e.payload[:0], older...)
	payload = append(payload, newer...)
	e.payload = payload[:0]

	// Read-modify-write of the 64B entry: the read is not timing critical
	// and the write may be dropped under bandwidth pressure, losing the
	// update.
	ctx.TableRead(now)
	e.stats.Trainings++
	if !ctx.TableWrite(now) {
		e.stats.LostUpdates++
		return
	}
	e.table.Update(key, payload)
}

// rotate advances the EMAB: the oldest entry is recycled as the new
// current epoch's (empty) entry by stepping the ring head back onto it.
func (e *EBCP) rotate(cs *coreState) {
	n := len(cs.emab)
	cs.head = (cs.head + n - 1) % n
	cs.entry(0).reset()
}

// lookup reads the correlation table entry keyed by the first access of
// the new epoch and issues prefetches for its addresses when the read
// returns. Subsequent accesses in the epoch do not look up the table.
func (e *EBCP) lookup(a prefetch.Access, ctx *prefetch.Context) {
	e.stats.Lookups++
	addrs := e.table.Lookup(a.Line)
	entry := e.table.Index(a.Line)
	if len(addrs) == 0 {
		// Still charge the (useless) table read: the control cannot know
		// the entry is empty without reading it.
		ctx.TableRead(a.Now)
		return
	}
	e.stats.Matches++
	completion, ok := ctx.TableRead(a.Now)
	if !ok {
		return // read dropped under extreme pressure: no prefetches
	}
	idx := int64(entry)
	issued := 0
	for _, addr := range addrs {
		if issued >= e.cfg.Degree {
			break
		}
		ctx.Prefetch(completion, addr, idx)
		issued++
	}
}
