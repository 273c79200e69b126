// The result store: every Session resolves its cells through one Cache.
// By default that is an unbounded store private to the session, which
// deduplicates cells shared between its experiments (the baselines,
// Figure 5 reusing Figure 4). A serving daemon instead hands every
// request's session the same byte-budgeted store (Options.Cache), so
// identical cells are simulated once across all sessions: concurrent
// identical cells coalesce into one simulation and completed ones stay
// until evicted.
//
// Keys are content hashes. A cell's key digests everything that decides
// its result and nothing else: the code version, the resolved
// warmup/measure windows and the trace limit (the session seed), the
// cell's content (cellIdentity: engine kind, contender name, parameter
// and filter blocks, core count, system tweaks), and the full workload
// parameter struct. What only names or relates a cell — its spec key
// string, its baseline, the spec it came from — and how a session runs
// (worker counts, progress callbacks, the store itself) stay out. Equal
// cells therefore simulate once whichever spec, session or invocation
// path names them, and any difference in what they simulate keeps them
// apart. cachekey_test.go enforces both directions, field by field.
package exp

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"time"

	"ebcp/internal/metrics"
	"ebcp/internal/sim"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// CacheCodeVersion stamps every shared-cache key with the semantic
// version of the simulator. Bump the leading counter whenever a change
// alters what any cell computes (model behavior, workload generation,
// default configuration); the report schema rides along so schema
// revisions also invalidate stored results. Stale entries then miss
// instead of serving results from older code.
const CacheCodeVersion = "ebcp-code/1+" + metrics.SchemaV1

// Cache is the result store: content-hash keyed values with
// single-flight coalescing of concurrent identical computations, LRU
// eviction under a byte budget, and counters for the serving daemon's
// /metrics endpoint. It is safe for concurrent use; values are treated
// as immutable once stored.
type Cache struct {
	clock    func() time.Time
	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[string]*list.Element // key → LRU node holding *centry
	lru      list.List                // front = most recently used
	inflight map[string]*cflight

	hits      uint64
	misses    uint64
	joins     uint64
	evictions uint64
	oversize  uint64

	// computeUS observes, for every computation the cache ran (i.e.
	// every miss), its duration in microseconds — the serving layer's
	// cell-latency histogram, since cache computations are exactly the
	// cells that actually simulate. It stays empty without a clock.
	computeUS metrics.Histogram
}

// centry is one stored value with its accounted cost.
type centry struct {
	key  string
	val  any
	cost int64
}

// cflight is one in-progress computation; joiners wait on done and read
// val afterwards.
type cflight struct {
	done chan struct{}
	val  any
}

// NewCache creates a store evicting least-recently-used entries once
// stored costs exceed budget bytes. A budget <= 0 means unbounded (a
// session's own store and the load harness use that; the daemon always
// sets one). A single entry costing more than the whole budget is
// served to its caller but never stored: no sequence of evictions could
// make room for it, so storing it would pin it forever and thrash every
// fitting entry out. clock, when non-nil, times every computation into
// the compute_us histogram; a nil clock records no timings, which keeps
// wall-clock reads out of everything but the serving layer.
func NewCache(budget int64, clock func() time.Time) *Cache {
	return &Cache{
		clock:    clock,
		budget:   budget,
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*cflight),
	}
}

// Do returns the value stored under key, or runs compute — coalescing
// concurrent callers of the same key into one computation — and stores
// the result with the cost compute reports. hit is true when compute
// did not run in this caller (stored earlier, or joined another
// caller's in-flight computation).
//
// A cancelled ctx never starts a computation: Do then returns ctx's
// error, and the refused lookup counts as neither a hit nor a miss.
// Stored and in-flight values are still returned under a cancelled ctx,
// so a cancelled session yields partial results rather than blocking.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, int)) (v any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		v := el.Value.(*centry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.joins++
		c.mu.Unlock()
		<-f.done
		return f.val, true, nil
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	f := &cflight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	var start time.Time
	if c.clock != nil {
		start = c.clock()
	}
	v, cost := compute()
	f.val = v

	c.mu.Lock()
	if c.clock != nil {
		c.computeUS.Observe(uint64(c.clock().Sub(start).Microseconds()))
	}
	c.insertLocked(key, v, int64(cost))
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return v, false, nil
}

// insertLocked stores a completed computation and evicts from the LRU
// tail until the budget holds again (never evicting the entry just
// inserted: serving the value we just paid to compute always beats
// strict budget adherence for one round-trip).
func (c *Cache) insertLocked(key string, v any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	if c.budget > 0 && cost > c.budget {
		// The eviction loop below spares the newest entry, so an entry
		// that exceeds the budget on its own would survive every pass
		// while forcing everything else out — a permanent squatter. Let
		// the caller keep the value it computed and store nothing.
		c.oversize++
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing caller can re-insert a key evicted between its miss
		// and its store; keep the newer value and re-account the cost.
		c.bytes -= el.Value.(*centry).cost
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	e := &centry{key: key, val: v, cost: cost}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += cost
	for c.budget > 0 && c.bytes > c.budget && c.lru.Len() > 1 {
		c.evictOldestLocked()
	}
}

// evictOldestLocked removes the least-recently-used entry.
func (c *Cache) evictOldestLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*centry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.cost
	c.evictions++
}

// CacheStats is a point-in-time snapshot of the store's counters,
// embedded in the serving daemon's /metrics document.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"inflight_joins"`
	Evictions uint64 `json:"evictions"`
	// Oversize counts computed values rejected (not stored) because
	// their single cost exceeded the whole budget.
	Oversize uint64 `json:"oversize_rejects"`
	Entries  int    `json:"entries"`
	Inflight int    `json:"inflight"`
	Bytes    int64  `json:"bytes"`
	Budget   int64  `json:"budget_bytes"`
	// HitRatio counts joins as hits: (hits+joins) / all lookups. 0 when
	// nothing was looked up yet.
	HitRatio float64 `json:"hit_ratio"`
	// ComputeUS is the per-computation (cache-miss) latency histogram in
	// microseconds.
	ComputeUS metrics.Histogram `json:"compute_us"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Joins:     c.joins,
		Evictions: c.evictions,
		Oversize:  c.oversize,
		Entries:   c.lru.Len(),
		Inflight:  len(c.inflight),
		Bytes:     c.bytes,
		Budget:    c.budget,
		ComputeUS: c.computeUS,
	}
	if total := c.hits + c.joins + c.misses; total > 0 {
		st.HitRatio = float64(st.Hits+st.Joins) / float64(total)
	}
	return st
}

// sealCellKey returns the content-hash store key of one cell: the
// digest of the session seed (cacheSeed), the cell's content
// (cellIdentity) and its full workload parameter struct. The workload
// parameters are serialized with %+v: struct fields print in
// declaration order, so the encoding is deterministic and picks up any
// field added to workload.Params.
func sealCellKey(seed, cell string, bench workload.Params) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%+v\n", seed, cell, bench)
	return hex.EncodeToString(h.Sum(nil))
}

// cellIdentity renders what a cell template simulates: the engine kind,
// the contender reference and the system tweaks. Parameter and filter
// blocks enter in compact form, so layout never splits two cells; an
// absent parameter block is the empty one (the registry decodes both
// alike), while an absent filter block (no filter) differs from `{}`
// (the tuned filter). Absent tweaks are zero tweaks, which keep the
// simulator defaults. The key string and the baseline only name and
// relate cells, so they stay out.
func cellIdentity(c spec.CellV1) string {
	kind := "sim"
	if c.Cores > 0 {
		kind = "cmp"
	}
	var tw spec.SimTweaksV1
	if c.Sim != nil {
		tw = *c.Sim
	}
	params := compactJSON(c.Prefetcher.Params)
	if params == "" {
		params = "{}"
	}
	return fmt.Sprintf("%s cores=%d pf=%q params=%s filter=%s sim=%+v",
		kind, c.Cores, c.Prefetcher.Name, params, compactJSON(c.Prefetcher.Filter), tw)
}

// compactJSON returns a JSON block without insignificant whitespace
// ("" for an absent block). A block that is not valid JSON never gets
// past spec decoding; it would enter verbatim.
func compactJSON(raw json.RawMessage) string {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return string(raw)
	}
	return b.String()
}

// cacheSeed builds the session-level part of every store key: the code
// version, the resolved windows (so a zero field and an explicit
// default digest identically) and the trace limit. Every session builds
// its seed when it is created, so it is appended with strconv rather
// than formatted with fmt, which cost a grid session's set-up about 13%.
func (o Options) cacheSeed() string {
	warm, measure := o.windows()
	b := append(make([]byte, 0, 128), CacheCodeVersion+"|warm="...)
	b = strconv.AppendUint(b, warm, 10)
	b = strconv.AppendUint(append(b, "|measure="...), measure, 10)
	b = strconv.AppendUint(append(b, "|max="...), o.MaxInsts, 10)
	return string(b)
}

// cellKey returns the store key of r under the session's seed.
func (s *Session) cellKey(r cellReq) string {
	return sealCellKey(s.seed, r.tpl.id, r.bench)
}

// Approximate in-memory cost of a stored cell, for the store's byte
// budget. Results are flat value structs (fixed-size histogram arrays,
// no heap indirection except the per-lane slice), so the reflect sizes
// are accurate to within the key and bookkeeping overhead folded in as
// cellCostOverhead.
const cellCostOverhead = 256

var (
	simResultSize = int(reflect.TypeOf(sim.Result{}).Size())
	cmpResultSize = int(reflect.TypeOf(sim.CMPResult{}).Size())
)

func (o *outcome) cost() int {
	return cmpResultSize + len(o.res.PerCore)*simResultSize + cellCostOverhead
}
