// Package prefetch defines the prefetcher interface the simulator drives
// and implements the comparison prefetchers evaluated in Section 5.3 of
// the paper: the GHB PC/DC prefetcher, the Tag Correlating Prefetcher,
// a 32-stream stride prefetcher, Spatial Memory Streaming, and Solihin's
// memory-side correlation prefetcher. The paper's own contribution, the
// epoch-based correlation prefetcher, lives in internal/core.
//
// All prefetchers observe the same stream the paper's prefetcher control
// sees: the L1 miss requests sent from the cores to the L2 banks,
// annotated with their L2 outcome (hit, prefetch-buffer hit, or off-chip
// miss) and with the epoch bookkeeping of the core model. Each prefetcher
// filters this stream according to its published design (e.g. TCP, stream
// and SMS train only on loads; GHB, Solihin and EBCP also prefetch
// instruction misses). Prefetched lines land in the shared prefetch
// buffer via the Context, which enforces memory bandwidth and priorities.
package prefetch

import (
	"ebcp/internal/amo"
	"ebcp/internal/cache"
	"ebcp/internal/ebcperr"
	"ebcp/internal/mem"
	"ebcp/internal/metrics"
)

// Access describes one L2-level access (an L1 miss request) presented to a
// prefetcher, together with its outcome.
type Access struct {
	// Core identifies the hardware thread that made the access (0 on a
	// single-core machine). The prefetcher control sits in front of the
	// core-to-L2 crossbar precisely so it can keep per-thread state
	// (Section 3.2): per-thread miss streams correlate, the interleaved
	// stream a memory-side engine sees does not.
	Core int
	// Now is the core cycle at which the access reached the L2.
	Now uint64
	// Inst is the retired instruction count.
	Inst uint64
	// Line is the 64B line accessed.
	Line amo.Line
	// PC is the program counter of the instruction making the access (for
	// instruction fetches, PC is the fetched address itself).
	PC amo.PC
	// IFetch marks instruction fetches; otherwise the access is a load.
	// Stores are not presented (weak consistency: store prefetching is not
	// essential and the paper's prefetchers ignore stores).
	IFetch bool
	// Dependent carries the trace's pointer-chase flag: the address was
	// computed from the most recent off-chip load's value.
	Dependent bool

	// Outcome of the access:

	// L2Hit: the line was in the L2 (no off-chip activity).
	L2Hit bool
	// PBHit: satisfied by the prefetch buffer. PBPartial marks hits on
	// in-flight lines. PBTableIndex is the correlation-table entry that
	// generated the prefetch (core.NoTableIndex / cache.NoTableIndex when
	// not applicable).
	PBHit        bool
	PBPartial    bool
	PBTableIndex int64
	// Miss: a real off-chip miss. MissMerged marks accesses that merged
	// into an already-outstanding miss to the same line.
	Miss       bool
	MissMerged bool

	// Epoch bookkeeping from the core model: EpochID is the id of the
	// epoch the access belongs to (0 before the first epoch), and NewEpoch
	// marks the access that triggered a new epoch.
	EpochID  uint64
	NewEpoch bool
}

// OffChip reports whether the access left the chip (real miss or a hit on
// an in-flight prefetch).
func (a Access) OffChip() bool { return a.Miss || (a.PBHit && a.PBPartial) }

// Prefetcher is the interface the simulator drives, and the whole
// contract: OnAccess is called for every L2-level instruction fetch and
// load, in program order; implementations train on it and reach the
// machine only through the Context — prefetches, table traffic and the
// demand-side hooks — so a wrapper that forwards OnAccess forwards them
// all. (ResetStats, the one optional method, only clears statistics.)
type Prefetcher interface {
	// Name identifies the prefetcher in reports ("EBCP", "GHB large", ...).
	Name() string
	// OnAccess observes one access and may issue prefetches.
	OnAccess(a Access, ctx *Context)
}

// IssueFilter is the hook an adaptive prefetch filter (Filter) installs
// on the Context for the length of its inner contender's OnAccess
// (Context.Filtered): Prefetch consults it after the redundancy check,
// so a rejection costs neither memory bandwidth nor a buffer slot. The
// demand path never consults it — filtering can only drop prefetches.
type IssueFilter interface {
	// Admit reports whether the prefetch of line at cycle now may issue.
	Admit(now uint64, line amo.Line) bool
}

// Context gives prefetchers access to the memory system and the prefetch
// buffer, and accounts for their activity. It also carries the hooks a
// contender sets from inside its OnAccess: an issue filter (Filtered),
// an off-chip predictor (EarlyDispatch) and the first report of an
// untracked thread (RejectThread).
type Context struct {
	// Mem is the shared memory/interconnect model.
	Mem *mem.System
	// Buffer is the shared prefetch buffer demand accesses probe.
	Buffer *cache.PrefetchBuffer
	// L2 is probed (without side effects) to filter redundant prefetches.
	L2 *cache.Cache

	filter    IssueFilter
	predictor OffChipPredictor
	err       error
	stats     metrics.PFCounters
}

// NewContext assembles a prefetch context.
func NewContext(m *mem.System, buf *cache.PrefetchBuffer, l2 *cache.Cache) *Context {
	return &Context{Mem: m, Buffer: buf, L2: l2}
}

// Stats returns a copy of the counters.
func (c *Context) Stats() metrics.PFCounters { return c.stats }

// ResetStats zeroes the counters at the warmup/measurement boundary.
func (c *Context) ResetStats() { c.stats = metrics.PFCounters{} }

// Prefetch requests the line at cycle now. The request is filtered if the
// line is already on chip, charged against the prefetch-data bandwidth
// class, and inserted into the prefetch buffer with its arrival time. The
// tableIndex is remembered so a later hit can update the generating
// correlation-table entry (pass cache.NoTableIndex when not applicable).
// It reports whether a prefetch was actually issued.
//
//ebcp:hotpath
func (c *Context) Prefetch(now uint64, line amo.Line, tableIndex int64) bool {
	if c.L2.Lookup(line) || c.Buffer.Contains(line) {
		c.stats.Redundant++
		return false
	}
	if c.filter != nil && !c.filter.Admit(now, line) {
		c.stats.Filtered++
		return false
	}
	completion, ok := c.Mem.Read(now, mem.PrefetchData)
	if !ok {
		c.stats.Dropped++
		return false
	}
	c.Buffer.Insert(line, cache.PBEntry{ReadyAt: completion, IssuedAt: now, TableIndex: tableIndex})
	c.stats.Issued++
	return true
}

// TableRead issues a correlation-table read at cycle now and returns its
// completion time. Dropped reads return ok=false (backlog full).
//
//ebcp:hotpath
func (c *Context) TableRead(now uint64) (completion uint64, ok bool) {
	c.stats.TableReads++
	return c.Mem.Read(now, mem.TableRead)
}

// TableWrite posts a correlation-table write at cycle now, reporting
// whether the interconnect accepted it.
//
//ebcp:hotpath
func (c *Context) TableWrite(now uint64) bool {
	c.stats.TableWrites++
	return c.Mem.Write(now, mem.TableWrite)
}

// Filtered drives inner with one access while f vets every prefetch it
// issues, then restores the filter that was installed before, so an
// issue made outside a filter's OnAccess is never vetted by it.
//
//ebcp:hotpath
func (c *Context) Filtered(f IssueFilter, inner Prefetcher, a Access) {
	prev := c.filter
	c.filter = f
	inner.OnAccess(a, c)
	c.filter = prev
}

// EarlyDispatch returns how many cycles of a real miss's latency the
// attached off-chip predictor hides by dispatching the request early,
// 0 when no predictor is attached. The simulator calls it on the demand
// path before the access reaches OnAccess.
//
//ebcp:hotpath
func (c *Context) EarlyDispatch(core int, pc amo.PC, line amo.Line, ifetch bool) uint64 {
	if c.predictor == nil {
		return 0
	}
	return c.predictor.PredictOffChip(core, pc, line, ifetch)
}

// RejectThread reports that the calling contender, which keeps state for
// tracked hardware threads, got an access from thread core. The
// contender ignores the access; the first report is kept as Err.
func (c *Context) RejectThread(name string, core, tracked int) {
	if c.err == nil {
		c.err = ebcperr.Invalidf("prefetch: %s tracks %d threads and got an access from thread %d", name, tracked, core)
	}
}

// Err returns the first RejectThread report, nil if none: a run whose
// contender could not track every thread simulated a different machine.
func (c *Context) Err() error { return c.err }

// SpeculativeRead charges a speculative off-chip read — a Hermes-style
// early dispatch whose access turned out to be on-chip — against the
// prefetch-data bandwidth class. Nothing lands in the prefetch buffer:
// a false-positive dispatch buys pure bus occupancy. It reports whether
// the interconnect accepted the read.
//
//ebcp:hotpath
func (c *Context) SpeculativeRead(now uint64) bool {
	_, ok := c.Mem.Read(now, mem.PrefetchData)
	if ok {
		c.stats.SpecReads++
	} else {
		c.stats.SpecDrops++
	}
	return ok
}

// None is the no-op prefetcher used for baseline runs.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnAccess implements Prefetcher.
func (None) OnAccess(Access, *Context) {}
