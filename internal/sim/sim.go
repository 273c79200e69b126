// Package sim assembles the full system: the condensed-trace core model,
// the L1/L2 cache hierarchy, the prefetch buffer, the bandwidth-constrained
// memory system and a prefetcher, and runs warmup + measurement windows
// collecting the statistics the paper's evaluation reports (overall CPI,
// epochs per instruction, L2 instruction/load miss rates, prefetch
// coverage and accuracy, memory traffic).
package sim

import (
	"fmt"

	"ebcp/internal/amo"
	"ebcp/internal/cache"
	"ebcp/internal/cpu"
	"ebcp/internal/ebcperr"
	"ebcp/internal/mem"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
)

// ShortTraceError reports that a trace source was exhausted before the
// warmup window completed. The run's statistics were never reset, so
// they include the warmup window; Partial carries them for diagnostic
// use. The error matches ebcperr.ErrShortTrace under errors.Is.
type ShortTraceError struct {
	// Partial is the contaminated result (WarmupIncomplete is set).
	Partial Result
	// Insts is how many instructions retired before the source ended;
	// Want is the warmup window that was requested.
	Insts, Want uint64
}

// Error implements error.
func (e *ShortTraceError) Error() string {
	return fmt.Sprintf("sim: trace ended after %d of %d warmup instructions; statistics include warmup", e.Insts, e.Want)
}

// Unwrap classifies the error as ebcperr.ErrShortTrace.
func (e *ShortTraceError) Unwrap() error { return ebcperr.ErrShortTrace }

// Config describes a full simulated system (defaults follow Section 4.4).
type Config struct {
	Core cpu.Config
	L1I  cache.Config
	L1D  cache.Config
	L2   cache.Config
	Mem  mem.Config
	// PBEntries/PBWays shape the prefetch buffer (64 entries 4-way tuned;
	// 1024 in the idealized design-space runs).
	PBEntries int
	PBWays    int
	// WarmInsts instructions warm the caches and predictors; MeasureInsts
	// are then measured (150M + 100M in the paper).
	WarmInsts    uint64
	MeasureInsts uint64
}

// DefaultConfig is the paper's default processor configuration. The
// on-chip CPI is workload-calibrated and set by the workload package.
func DefaultConfig() Config {
	return Config{
		Core:         cpu.DefaultConfig(),
		L1I:          cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, HitLatency: 3},
		L1D:          cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, HitLatency: 3},
		L2:           cache.Config{Name: "L2", SizeBytes: 2 << 20, Ways: 4, HitLatency: 20},
		Mem:          mem.DefaultConfig(),
		PBEntries:    64,
		PBWays:       4,
		WarmInsts:    150_000_000,
		MeasureInsts: 100_000_000,
	}
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.PBEntries <= 0 || c.PBWays <= 0 {
		return ebcperr.Invalidf("sim: prefetch buffer shape %d/%d must be positive", c.PBEntries, c.PBWays)
	}
	if c.MeasureInsts == 0 {
		return ebcperr.Invalidf("sim: measurement window must be positive")
	}
	return nil
}

// Result is the record of one run: one lane's counters for the measured
// window, as the components counted them, with the paper's derived
// metrics as its methods.
type Result = metrics.Snapshot

// MetricsConfig extracts the configuration fields a JSON report records
// alongside each run.
func (c Config) MetricsConfig() metrics.ConfigV1 {
	return metrics.ConfigV1{
		WarmInsts:    c.WarmInsts,
		MeasureInsts: c.MeasureInsts,
		PBEntries:    c.PBEntries,
		ReadGBps:     c.Mem.ReadGBps,
		WriteGBps:    c.Mem.WriteGBps,
	}
}

// missSet is the per-epoch duplicate-miss filter: a small open-addressed
// set of lines, sized to the architectural bound on overlapped misses.
// Clearing is O(1) — the mark is bumped and stale slots read as empty —
// which matters because the filter resets at every epoch boundary.
type missSet struct {
	mask  uint64
	lines []amo.Line
	marks []uint64
	mark  uint64
	n     int
}

func newMissSet(bound int) missSet {
	slots := 64
	for slots < 4*bound {
		slots *= 2
	}
	return missSet{
		mask:  uint64(slots - 1),
		lines: make([]amo.Line, slots),
		marks: make([]uint64, slots),
		mark:  1,
	}
}

func missHash(l amo.Line) uint64 {
	h := uint64(l) * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

//ebcp:hotpath
func (s *missSet) clear() { s.mark++; s.n = 0 }

//ebcp:hotpath
func (s *missSet) has(l amo.Line) bool {
	for i := missHash(l) & s.mask; s.marks[i] == s.mark; i = (i + 1) & s.mask {
		if s.lines[i] == l {
			return true
		}
	}
	return false
}

//ebcp:hotpath
func (s *missSet) add(l amo.Line) {
	if 2*s.n >= len(s.lines) { // defensive: keep probes short if the bound is ever exceeded
		s.grow()
	}
	i := missHash(l) & s.mask
	for s.marks[i] == s.mark {
		if s.lines[i] == l {
			return
		}
		i = (i + 1) & s.mask
	}
	s.lines[i], s.marks[i] = l, s.mark
	s.n++
}

func (s *missSet) grow() {
	old := *s
	slots := 2 * len(old.lines)
	s.mask = uint64(slots - 1)
	s.lines = make([]amo.Line, slots)
	s.marks = make([]uint64, slots)
	s.n = 0
	for i, m := range old.marks {
		if m == old.mark {
			s.add(old.lines[i])
		}
	}
}

// lane is the per-hardware-thread half of the machine: a core model, its
// private L1 caches and its miss bookkeeping. The L2, prefetch buffer,
// memory system and prefetcher are shared across lanes.
type lane struct {
	id   int
	core *cpu.Model
	l1i  *cache.Cache
	l1d  *cache.Cache

	// Per-epoch duplicate-miss filter (MSHR merge behaviour).
	outstanding missSet
	outEpoch    uint64

	// Kind-resolved counters for the measurement window.
	missIF, missLD, missST uint64
	pbHitIF, pbHitLD       uint64

	// reg collects the lane's histograms: the core model feeds the epoch
	// histograms as epochs close, stepRead feeds the prefetch-to-use
	// distances. Observation is allocation-free and changes no timing.
	reg metrics.Registry

	// Run-loop state: the unread rest of the lane's current batch, the
	// instruction count at which its window changes next, and whether it
	// has completed warmup.
	pending []trace.Record
	limit   uint64
	warmed  bool
}

func newLane(id int, cfg Config) (*lane, error) {
	core, err := cpu.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l := &lane{
		id:          id,
		core:        core,
		l1i:         l1i,
		l1d:         l1d,
		outstanding: newMissSet(cfg.Core.MaxOutstanding),
	}
	core.SetMetrics(&l.reg)
	return l, nil
}

func (l *lane) resetStats() {
	l.core.ResetStats()
	l.l1i.ResetStats()
	l.l1d.ResetStats()
	l.missIF, l.missLD, l.missST = 0, 0, 0
	l.pbHitIF, l.pbHitLD = 0, 0
	l.reg.Reset()
}

// Runner is an assembled system ready to execute a trace.
type Runner struct {
	cfg Config
	pf  prefetch.Prefetcher

	lanes []*lane
	l2    *cache.Cache
	pb    *cache.PrefetchBuffer
	mem   *mem.System
	ctx   *prefetch.Context
}

// NewRunner assembles a single-core system. It returns an
// ErrInvalidConfig-classified error if the configuration fails Validate.
func NewRunner(cfg Config, pf prefetch.Prefetcher) (*Runner, error) {
	return newRunner(cfg, pf, 1)
}

// newRunner assembles a system of n lanes around one shared half.
func newRunner(cfg Config, pf prefetch.Prefetcher, n int) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	pb, err := cache.NewPrefetchBuffer(cfg.PBEntries, cfg.PBWays)
	if err != nil {
		return nil, err
	}
	lanes := make([]*lane, n)
	for i := range lanes {
		if lanes[i], err = newLane(i, cfg); err != nil {
			return nil, err
		}
	}
	return &Runner{
		cfg:   cfg,
		pf:    pf,
		lanes: lanes,
		l2:    l2,
		pb:    pb,
		mem:   m,
		ctx:   prefetch.NewContext(m, pb, l2),
	}, nil
}

// Run executes warmup then measurement over the trace source and returns
// the measured statistics. It returns an ErrInvalidConfig-classified
// error for a bad configuration or a prefetcher that reported a thread
// it does not track (prefetch.Context.RejectThread), or an
// ErrShortTrace-classified
// *ShortTraceError — alongside the contaminated partial Result — when the
// source ends inside the warmup window. The source is read ahead on a
// goroutine of its own (see Runner.Run).
func Run(src trace.Source, pf prefetch.Prefetcher, cfg Config) (Result, error) {
	r, err := NewRunner(cfg, pf)
	if err != nil {
		return Result{}, err
	}
	return r.Run(src)
}

// Run executes the runner's warmup and measurement windows. Records are
// read through a trace.Ahead: one reader goroutine fills batches from
// src, up to two batches past the batch being simulated, so trace
// generation overlaps with simulation, and the hot loop iterates a slice
// instead of paying one interface call per record. The delivered record
// sequence is identical to the per-record path. src must not be touched
// elsewhere until Run returns, and its position afterwards is
// unspecified; the reader has exited by the time Run returns. If the
// source is exhausted before the warmup window completes, Run returns
// the partial Result — flagged WarmupIncomplete, statistics including
// warmup — together with an ErrShortTrace-classified *ShortTraceError
// carrying the same Result.
func (r *Runner) Run(src trace.Source) (Result, error) {
	res := r.run([]trace.Source{src})[0]
	if err := r.ctx.Err(); err != nil {
		return Result{}, err
	}
	if res.WarmupIncomplete {
		return res, &ShortTraceError{Partial: res, Insts: r.lanes[0].core.Insts(), Want: r.cfg.WarmInsts}
	}
	return res, nil
}

// run drives each lane over its own source (one source per lane) through
// the warmup and measurement windows and returns the lanes' results. The
// lane with the lowest (clock, index) executes next, so requests reach
// the shared half in global time order (DESIGN.md §9). A lane keeps its
// turn while it stays lowest: one scan finds it and the key at which the
// next-lowest lane takes over, and the lane steps through its batch
// until its clock reaches that key. One lane thus runs whole batches,
// and N lanes interleave record by record exactly as a per-record pick
// would.
//
// A lane's limit is the instruction count at which its window changes:
// WarmInsts while it warms, never once it has warmed and waits for the
// others, and the end of its measurement window once every lane has
// warmed and the statistics of every lane and of the shared half reset
// together. A source that ends inside warmup contaminates every lane's
// result (WarmupIncomplete): its lane counts as warmed so the others
// proceed to a flagged measurement, and with no lane left running the
// partial statistics are kept rather than reset.
func (r *Runner) run(sources []trace.Source) []Result {
	const never = ^uint64(0)
	lanes := r.lanes
	ahead := trace.NewAhead(sources)
	defer ahead.Close()
	// clock mirrors each running lane's core clock in one flat slice, so
	// the scan reads contiguous memory; a retired lane's entry is never.
	clock := make([]uint64, len(lanes))
	for i, l := range lanes {
		clock[i], l.limit, l.warmed = l.core.Now(), r.cfg.WarmInsts, false
	}
	active, unwarmed := len(lanes), len(lanes)
	measuring, short := false, false
	measure := func() {
		r.resetStats()
		for _, l := range lanes {
			l.limit = l.core.Insts() + r.cfg.MeasureInsts
		}
		measuring = true
	}
	warm := func(l *lane) {
		l.warmed, l.limit = true, never
		if unwarmed--; unwarmed == 0 {
			measure()
		}
	}
	if r.cfg.WarmInsts == 0 {
		measure()
	}

	for active > 0 {
		// key is the lowest clock+[j > li] over the other running lanes j:
		// lane li stays lowest while its clock is below it.
		li, lo, key := 0, never, never
		for i, c := range clock {
			if c < lo {
				li, lo, key = i, c, lo
			} else if c < key-1 {
				key = c + 1
			}
		}
		l, core := lanes[li], lanes[li].core
		for {
			if len(l.pending) == 0 {
				if l.pending = ahead.Next(li); len(l.pending) == 0 {
					clock[li] = never
					active--
					if !measuring && !l.warmed {
						short = true
						if active > 0 {
							warm(l)
						}
					}
					break
				}
			}
			batch, limit, n := l.pending, l.limit, 0
			for n < len(batch) {
				r.step(l, batch[n])
				n++
				if core.Insts() >= limit || core.Now() >= key {
					break
				}
			}
			l.pending = batch[n:]
			if core.Insts() >= limit {
				if measuring {
					clock[li] = never
					active--
					break
				}
				warm(l)
			}
			if core.Now() >= key {
				clock[li] = core.Now()
				break
			}
		}
	}

	out := make([]Result, len(lanes))
	for i, l := range lanes {
		l.pending = nil // the batch belongs to the closed reader
		l.core.CloseEpoch()
		out[i] = r.laneResult(l)
		out[i].WarmupIncomplete = short
	}
	return out
}

func (r *Runner) resetStats() {
	for _, l := range r.lanes {
		l.resetStats()
	}
	r.l2.ResetStats()
	r.pb.ResetStats()
	r.mem.ResetStats()
	r.ctx.ResetStats()
	if rs, ok := r.pf.(interface{ ResetStats() }); ok {
		rs.ResetStats()
	}
}

// laneResult assembles a Result from one lane plus the shared components.
func (r *Runner) laneResult(l *lane) Result {
	return Result{
		Prefetcher:   r.pf.Name(),
		Core:         l.core.Stats(),
		L1I:          l.l1i.Stats(),
		L1D:          l.l1d.Stats(),
		L2:           r.l2.Stats(),
		L2MissIFetch: l.missIF,
		L2MissLoad:   l.missLD,
		L2MissStore:  l.missST,
		PBHitIFetch:  l.pbHitIF,
		PBHitLoad:    l.pbHitLD,
		PB:           r.pb.Stats(),
		PF:           r.ctx.Stats(),
		Mem:          r.mem.Stats(),
		Hist:         l.reg,
	}
}

// step processes one condensed trace record on a lane.
//
//ebcp:hotpath
func (r *Runner) step(l *lane, rec trace.Record) {
	l.core.Advance(uint64(rec.Gap) + 1)

	// Clear the duplicate-miss filter when the epoch it belonged to is
	// gone (an O(1) mark bump).
	if !l.core.InEpoch() || l.core.EpochID() != l.outEpoch {
		l.outstanding.clear()
		l.outEpoch = l.core.EpochID()
	}

	line := amo.LineOf(rec.Addr)
	switch rec.Kind {
	case trace.Store:
		r.stepStore(l, rec, line)
	case trace.IFetch, trace.Load:
		r.stepRead(l, rec, line)
	}
	if rec.BreaksWindow {
		l.core.BreakWindow()
	}
}

// stepStore handles a store: under weak consistency store misses are
// absorbed by the store buffer — they consume memory bandwidth but never
// stall the core, terminate windows or train prefetchers.
//
//ebcp:hotpath
func (r *Runner) stepStore(l *lane, rec trace.Record, line amo.Line) {
	if rec.Serializing {
		l.core.Serialize()
	}
	if l.l1d.Access(line) {
		return
	}
	// Keep the prefetch buffer coherent with stores.
	r.pb.Invalidate(line)
	if r.l2.Access(line) {
		l.l1d.Fill(line, false)
		return
	}
	// Write-allocate fetch of the line, posted.
	r.mem.Read(l.core.Now(), mem.Demand)
	r.l2fill(l, line, true)
	l.l1d.Fill(line, false)
	l.missST++
}

// l2fill installs a line in the shared L2, charging the writeback of a
// dirty victim to the demand write bus.
//
//ebcp:hotpath
func (r *Runner) l2fill(l *lane, line amo.Line, dirty bool) {
	if _, _, victimDirty := r.l2.Fill(line, dirty); victimDirty {
		r.mem.Write(l.core.Now(), mem.Demand)
	}
}

// stepRead handles an instruction fetch or load.
//
//ebcp:hotpath
func (r *Runner) stepRead(l *lane, rec trace.Record, line amo.Line) {
	ifetch := rec.Kind == trace.IFetch
	l1 := l.l1d
	if ifetch {
		l1 = l.l1i
	}
	if l1.Access(line) {
		// L1 hit: cost folded into the calibrated on-chip CPI; the
		// prefetcher control (in front of the core-to-L2 crossbar) never
		// sees it.
		if rec.Serializing {
			l.core.Serialize()
		}
		return
	}

	a := prefetch.Access{
		Core:         l.id,
		Inst:         l.core.Insts(),
		Line:         line,
		PC:           rec.PC,
		IFetch:       ifetch,
		Dependent:    rec.DependsOnMiss,
		PBTableIndex: cache.NoTableIndex,
	}

	switch {
	case l.outstandingMiss(line):
		// A miss to this line is already in flight in the open epoch: the
		// request merges into the existing MSHR entry — no new traffic, no
		// new epoch. A dependent or serializing merged access still
		// terminates the window (it needs the in-flight data).
		if rec.DependsOnMiss || rec.Serializing {
			l.core.PrepareMiss(rec.DependsOnMiss, rec.Serializing)
		}
		a.Miss = true
		a.MissMerged = true

	case r.l2.Access(line):
		// L2 hit.
		if rec.Serializing {
			l.core.Serialize()
		}
		l.core.AddLatency(r.cfg.L2.HitLatency)
		l1.Fill(line, false)
		a.L2Hit = true

	default:
		probeAt := l.core.Now()
		e, hit, partial := r.pb.Hit(line, probeAt)
		if hit {
			l.observeUseDist(probeAt, e.IssuedAt)
		}
		switch {
		case hit && !partial:
			// Prefetch buffer hit: the line is on chip; promote it to the
			// regular caches (it satisfied a demand request).
			if rec.Serializing {
				l.core.Serialize()
			}
			l.core.AddLatency(r.cfg.L2.HitLatency)
			r.l2fill(l, line, false)
			l1.Fill(line, false)
			a.PBHit = true
			a.PBTableIndex = e.TableIndex
			l.countPBHit(ifetch)

		case hit: // partial: in flight
			issueAt := l.core.PrepareMiss(rec.DependsOnMiss, rec.Serializing)
			completion := e.ReadyAt
			if completion < issueAt {
				completion = issueAt
			}
			a.NewEpoch = l.core.Miss(completion, ifetch)
			r.l2fill(l, line, false)
			l1.Fill(line, false)
			a.PBHit = true
			a.PBPartial = true
			a.PBTableIndex = e.TableIndex
			l.countPBHit(ifetch)

		default:
			// Real off-chip miss.
			issueAt := l.core.PrepareMiss(rec.DependsOnMiss, rec.Serializing)
			completion, _ := r.mem.Read(issueAt, mem.Demand)
			if completion > issueAt {
				// A predicted-off-chip access dispatched its memory read
				// early: the predicted headroom comes off the miss latency
				// (never below the issue cycle). False positives are
				// charged by the predictor itself via SpeculativeRead.
				if early := r.ctx.EarlyDispatch(l.id, rec.PC, line, ifetch); early > 0 {
					if early > completion-issueAt {
						early = completion - issueAt
					}
					completion -= early
				}
			}
			a.NewEpoch = l.core.Miss(completion, ifetch)
			l.noteOutstanding(line)
			r.l2fill(l, line, false)
			l1.Fill(line, false)
			a.Miss = true
			if ifetch {
				l.missIF++
			} else {
				l.missLD++
			}
		}
	}

	a.Now = l.core.Now()
	a.EpochID = l.core.EpochID()
	r.pf.OnAccess(a, r.ctx)
}

// observeUseDist records how long after issue a prefetch was used. On a
// CMP the prefetch may have been issued under another lane's (larger)
// clock, so the distance clamps at zero.
//
//ebcp:hotpath
func (l *lane) observeUseDist(useAt, issuedAt uint64) {
	var d uint64
	if useAt > issuedAt {
		d = useAt - issuedAt
	}
	l.reg.PBUseDist.Observe(d)
}

//ebcp:hotpath
func (l *lane) countPBHit(ifetch bool) {
	if ifetch {
		l.pbHitIF++
	} else {
		l.pbHitLD++
	}
}

// outstandingMiss reports whether a miss to the line is already in flight
// within the open epoch.
//
//ebcp:hotpath
func (l *lane) outstandingMiss(line amo.Line) bool {
	if !l.core.InEpoch() {
		return false
	}
	return l.outstanding.has(line)
}

//ebcp:hotpath
func (l *lane) noteOutstanding(line amo.Line) {
	if l.core.InEpoch() {
		l.outstanding.add(line)
		l.outEpoch = l.core.EpochID()
	}
}
