// Package exp defines the paper's experiments — Table 1 and Figures 4
// through 9 — as runnable definitions: each builds the workloads, system
// configurations and prefetchers it needs, executes the simulations, and
// renders the same rows/series the paper reports, side by side with the
// paper's published values where the paper states them.
//
// Execution is two-phase. An experiment first *plans* its full run grid
// and resolves it through the session's result store on a worker pool
// (the simulate phase, sched.go), then builds its report from those
// results in a fixed order (the collect phase). Reports are therefore
// bit-identical for any worker count: parallelism changes wall-clock
// time only.
package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"ebcp/internal/ebcperr"
	"ebcp/internal/registry"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// Options control experiment execution.
type Options struct {
	// Warm and Measure override the paper's 150M/100M instruction windows
	// (0 keeps the defaults). Scaled-down windows run much faster and
	// preserve shapes, at some loss of training for the correlation
	// prefetchers.
	Warm, Measure uint64
	// MaxInsts truncates every cell's trace after this many instructions
	// (0 = unlimited). A limit below the warmup window makes every cell
	// fail with ErrShortTrace — useful for exercising the partial-report
	// path end-to-end.
	MaxInsts uint64
	// Workers bounds how many simulations the simulate phase runs
	// concurrently (0 = runtime.NumCPU()). Results are bit-identical for
	// any worker count; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, is invoked once per completed simulation.
	// The session serializes invocations (they may originate on any
	// worker goroutine), so the callback needs no locking of its own.
	// Completion order — and therefore progress order — depends on
	// scheduling; reports do not.
	Progress func(RunUpdate)
	// Benchmarks overrides the workload set (nil = the paper's four
	// commercial benchmarks). Tests use workload.Scaled variants here.
	Benchmarks []workload.Params
	// Cache, when non-nil, is the result store the session shares with
	// other sessions (nil = a store of the session's own): cells whose
	// canonical content-hash key (sealCellKey) matches an earlier
	// computation — in this session or any other — are served from the
	// store instead of simulating, and concurrent identical cells across
	// sessions coalesce into one simulation. Cache never changes what a
	// session computes, only whether it has to; it is ignored by the
	// cache key itself.
	Cache *Cache
}

// RunUpdate describes one completed simulation.
type RunUpdate struct {
	// Key is the cell's label: its spec key instantiated for the
	// benchmark. It names the cell; the store identifies cells by
	// content, so one simulation may serve cells of several labels.
	Key string
	// Metric names Value: "CPI" for single-core runs, "IPC" for CMP runs.
	Metric string
	Value  float64
	// Runs is how many simulations the session has executed so far.
	Runs int
	// Err is non-nil when the simulation failed (bad cell configuration
	// or a short trace); Value is then meaningless.
	Err error
}

// ProgressWriter adapts an io.Writer into a Progress callback printing
// one line per completed simulation.
func ProgressWriter(w io.Writer) func(RunUpdate) {
	return func(u RunUpdate) {
		if u.Err != nil {
			fmt.Fprintf(w, "  ran %-40s failed: %v\n", u.Key, u.Err)
			return
		}
		fmt.Fprintf(w, "  ran %-40s %s %.3f\n", u.Key, u.Metric, u.Value)
	}
}

func (o Options) windows() (uint64, uint64) {
	w, m := o.Warm, o.Measure
	if w == 0 {
		w = 150_000_000
	}
	if m == 0 {
		m = 100_000_000
	}
	return w, m
}

// Experiment is one regenerable artifact of the paper.
type Experiment struct {
	// ID is the short name used on the command line ("table1", "fig4"...).
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment: it schedules the experiment's run grid
	// on the session's worker pool, then collects the report. Run is safe
	// to call from multiple goroutines sharing one session; cells common
	// to concurrent experiments are simulated once.
	Run func(s *Session) *Report
}

// All returns every experiment in paper order. The canonical
// experiments are committed ebcp.spec/v1 documents under specs/,
// compiled through the contender registry (spec.go).
func All() []Experiment {
	exps, _ := canonical()
	return append([]Experiment(nil), exps...)
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, ebcperr.Invalidf("exp: unknown experiment %q", id)
}

// Session runs simulations through a result store, so experiments
// sharing cells (e.g. the baselines, or Figures 4 and 5) execute them
// once. Sessions are safe for concurrent use: the store is
// single-flight (two experiments requesting the same cell share one
// simulation), and the simulate phase shards independent cells across
// a worker pool.
type Session struct {
	opts Options // opts.Cache is never nil
	ctx  context.Context

	statMu     sync.Mutex
	runs       int
	sharedHits int
	failures   int
	firstErr   error
	skipped    map[string]struct{} // cells that never simulated, by store key

	progressMu sync.Mutex

	seed string // the session-level part of every store key (cacheSeed)
}

// outcome is the stored result of one cell together with the error that
// produced (or prevented) it, so a failed cell is computed once and its
// error replayed to every consumer. A single-core cell's result is the
// one lane of res.
type outcome struct {
	res sim.CMPResult
	err error
}

// single returns a single-core cell's result (zero if it never ran).
func (o *outcome) single() sim.Result {
	if len(o.res.PerCore) == 0 {
		return sim.Result{}
	}
	return o.res.PerCore[0]
}

// NewSession creates a session that runs to completion.
func NewSession(opts Options) *Session {
	return NewSessionContext(context.Background(), opts)
}

// NewSessionContext creates a session whose simulations stop when ctx is
// cancelled: in-flight simulations finish, pending cells are skipped,
// and reports render cells that never ran as n/a. Err reports the
// cancellation. Without Options.Cache the session gets its own
// unbounded store.
func NewSessionContext(ctx context.Context, opts Options) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Cache == nil {
		opts.Cache = NewCache(0, nil)
	}
	return &Session{opts: opts, ctx: ctx, seed: opts.cacheSeed()}
}

// Runs returns how many simulations actually executed.
func (s *Session) Runs() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.runs
}

// SharedHits returns how many cell lookups the store served without
// this session simulating them: stored earlier (by this session, or by
// any session sharing Options.Cache) or joined in flight. Every lookup
// of a spec run is a run, a shared hit, or a skipped cell.
func (s *Session) SharedHits() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.sharedHits
}

// Err returns the session context's cancellation error, if any. A
// non-nil Err means reports collected from this session are partial
// (their unsimulated cells render as n/a).
func (s *Session) Err() error { return s.ctx.Err() }

// Failures returns how many executed simulations ended in an error
// (each failed cell is counted once, like Runs), plus the distinct
// cells that never simulated because cancellation skipped them.
func (s *Session) Failures() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.failures + len(s.skipped)
}

// workers returns the effective simulate-phase pool size.
func (s *Session) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.NumCPU()
}

// FirstError returns the first cell error any consumer of this session
// observed — failed simulations, shared-store failures replayed to this
// session, or cancellation skips — or nil for a fully clean session.
func (s *Session) FirstError() error {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.firstErr
}

// cellReq is one grid cell: a spec cell template bound to a
// benchmark. label is the template's key instantiated for the benchmark;
// it names the cell in progress lines and in a run's plan and collect
// table. The store key is the cell's content instead (Session.cellKey).
type cellReq struct {
	label string
	bench workload.Params
	tpl   *cellTemplate
}

// simulate executes one cell. A CMP cell (Cores > 0) runs that many
// threads of the workload (each seeded apart) sharing the L2 and the
// interconnect — this reproduction's extension: the paper's Section 6
// future work plus a quantitative test of its Section 3.3.1 placement
// argument; the canonical grid lives in specs/cmp.json.
func (s *Session) simulate(r cellReq) *outcome {
	cell := r.tpl
	cfg := sim.DefaultConfig()
	cfg.Core.OnChipCPI = r.bench.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = s.opts.windows()
	if tw := cell.Sim; tw != nil {
		if tw.PBEntries != 0 {
			cfg.PBEntries = tw.PBEntries
		}
		if tw.ReadGBps != 0 {
			cfg.Mem.ReadGBps = tw.ReadGBps
		}
		if tw.WriteGBps != 0 {
			cfg.Mem.WriteGBps = tw.WriteGBps
		}
	}
	if cell.Cores > 0 {
		// Per-thread windows at the single-core length would multiply
		// runtime by the core count; scale them down so each CMP point
		// costs about one single-core run.
		cfg.WarmInsts /= uint64(cell.Cores)
		cfg.MeasureInsts /= uint64(cell.Cores)
	}
	sources := make([]trace.Source, max(cell.Cores, 1))
	for i := range sources {
		b := r.bench
		b.Seed += int64(i) * 7919
		src, err := workload.New(b)
		if err != nil {
			return &outcome{err: err}
		}
		sources[i] = src
		if s.opts.MaxInsts > 0 {
			sources[i] = trace.NewLimit(src, s.opts.MaxInsts)
		}
	}
	pf, err := cell.pf.New(cell.Prefetcher.Params, cell.Cores)
	if err == nil {
		pf, err = registry.WrapFilter(pf, cell.Prefetcher.Filter)
	}
	if err != nil {
		return &outcome{err: err}
	}
	if cell.Cores > 0 {
		res, err := sim.RunCMP(sources, pf, cfg)
		return &outcome{res: res, err: err}
	}
	res, err := sim.Run(sources[0], pf, cfg)
	return &outcome{res: sim.CMPResult{Prefetcher: res.Prefetcher, PerCore: []sim.Result{res}}, err: err}
}

// cellValue folds a computed metric and the errors of the runs behind it
// into one render-layer value: any error yields NaN, which the render
// layer prints as "n/a" and counts in the report's footnote.
func cellValue(v float64, errs ...error) float64 {
	for _, err := range errs {
		if err != nil {
			return math.NaN()
		}
	}
	return v
}
