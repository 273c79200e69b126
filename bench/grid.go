package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/registry"
	"ebcp/internal/sim"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// gridWorkers is the grid's worker count: one per CPU of the two-CPU
// host the bounds were sized on.
const gridWorkers = 2

// gridSpec is the canonical experiment the grid workload runs.
const gridSpec = "cmp"

// gridSetups is how many times each grid rep sets up.
const gridSetups = 25

// gridWindows are the grid's windows: scale 0.1 of the paper's 150M+100M.
const gridWarm, gridMeasure = 15_000_000, 10_000_000

// gridCell is one cell of the grid, instantiated for one benchmark.
type gridCell struct {
	bench workload.Params
	name  string
	cell  spec.CellV1
}

// gridPlan lists the cells a spec's rows reference, per benchmark, in
// the order the experiment schedules them.
func gridPlan(sp spec.SpecV1, benches []workload.Params) []gridCell {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, g := range sp.Rows {
		for _, r := range g.Rows {
			for _, n := range r.Cells {
				add(sp.Cells[n].Baseline)
				add(n)
			}
		}
	}
	var plan []gridCell
	for _, b := range benches {
		for _, n := range names {
			plan = append(plan, gridCell{bench: b, name: n, cell: sp.Cells[n]})
		}
	}
	return plan
}

// laneInsts is how many instructions each lane of a cores-lane cell
// simulates: the experiment divides the windows among the lanes.
func laneInsts(warm, measure uint64, cores int) (uint64, uint64) {
	return warm / uint64(cores), measure / uint64(cores)
}

// gridSetup builds what one grid rep needs: the compiled canonical spec
// and a fresh session.
func gridSetup(benches []workload.Params, warm, measure uint64, workers int, progress func(exp.RunUpdate)) (exp.Experiment, *exp.Session, error) {
	sp, err := exp.CanonicalSpec(gridSpec)
	if err != nil {
		return exp.Experiment{}, nil, err
	}
	e, err := exp.FromSpec(sp)
	if err != nil {
		return exp.Experiment{}, nil, err
	}
	s := exp.NewSession(exp.Options{Warm: warm, Measure: measure, Workers: workers, Benchmarks: benches, Progress: progress})
	return e, s, nil
}

// checkGrid records the problems of one grid rep: failed or missing
// cells, n/a values, and grid bytes that differ from the first rep's.
func checkGrid(r *result, rep *exp.Report, s *exp.Session, cells int) metrics.GridV1 {
	var o op
	grid := rep.GridV1()
	o.expect(rep.NACells() == 0, "%d n/a cells", rep.NACells())
	o.expect(s.Failures() == 0, "%d failed cells", s.Failures())
	o.expect(s.Runs() == cells, "%d cells simulated, want %d", s.Runs(), cells)
	fp, err := fingerprint(grid)
	if o.noErr(err, "fingerprint") {
		if r.fingerprint == "" && len(o) == 0 {
			r.setFingerprint(fp)
		}
		o.expect(fp == r.fingerprint, "grid %s differs from the first rep's", fp[:12])
	}
	r.check(o)
	return grid
}

func runGridCMP(s settings, r *result) error {
	warm, measure := uint64(gridWarm), uint64(gridMeasure)
	if s.tiny {
		warm, measure = warm/tinyDiv, measure/tinyDiv
	}
	var benches []workload.Params
	for _, b := range workload.All() {
		benches = append(benches, seeded(b, s.seed))
	}
	sp, err := exp.CanonicalSpec(gridSpec)
	if err != nil {
		return err
	}
	plan := gridPlan(sp, benches)
	var insts uint64
	for _, gc := range plan {
		w, m := laneInsts(warm, measure, gc.cell.Cores)
		insts += uint64(gc.cell.Cores) * (w + m)
	}

	var gridS []float64
	err = timedReps(s.timed, s.minReps, func(i int) error {
		// Setup takes microseconds, so each rep sets up gridSetups times
		// for a steady median; the last session runs the grid.
		var setup []float64
		var e exp.Experiment
		var sess *exp.Session
		var c1, b0, b1 uint64
		for k := 0; k < gridSetups; k++ {
			_, b0 = allocs()
			start := time.Now()
			var err error
			e, sess, err = gridSetup(benches, warm, measure, gridWorkers, nil)
			setup = append(setup, time.Since(start).Seconds())
			if err != nil {
				return err
			}
			c1, b1 = allocs()
		}
		start := time.Now()
		rep := e.Run(sess)
		elapsed := time.Since(start)
		c2, b2 := allocs()
		checkGrid(r, rep, sess, len(plan))
		heap := heapMB()
		runtime.KeepAlive(sess)
		if i < 0 {
			return nil
		}
		gridS = append(gridS, elapsed.Seconds())
		r.sample("minsts_per_s", float64(insts)/elapsed.Seconds()/1e6)
		r.sample("op_ms", elapsed.Seconds()*1e3)
		r.sample("setup_s", setup...)
		r.sample("live_heap_mb", heap)
		r.sample("runtime.allocs_per_op", float64(c2-c1))
		r.sample("runtime.alloc_mb_per_op", mb(b2-b1))
		r.sample("setup.alloc_mb", mb(b1-b0))
		return nil
	})
	if err != nil || !s.traced {
		return err
	}
	return gridTraced(r, sp, benches, plan, warm, measure, summarize(gridS).Median)
}

// gridTrace is one grid rep timestamped through Options.Progress: the
// report, the session, how long e.Run took, and when each cell completed
// (measured from the start of e.Run).
type gridTrace struct {
	grid   metrics.GridV1
	sess   *exp.Session
	total  time.Duration
	stamps []time.Duration
}

func timedGrid(r *result, benches []workload.Params, warm, measure uint64, workers, cells int) (gridTrace, error) {
	var gt gridTrace
	var start time.Time
	e, sess, err := gridSetup(benches, warm, measure, workers, func(exp.RunUpdate) {
		gt.stamps = append(gt.stamps, time.Since(start))
	})
	if err != nil {
		return gt, err
	}
	start = time.Now()
	rep := e.Run(sess)
	gt.total = time.Since(start)
	gt.grid, gt.sess = checkGrid(r, rep, sess, cells), sess
	if len(gt.stamps) != cells {
		return gt, fmt.Errorf("%d progress updates for %d cells", len(gt.stamps), cells)
	}
	return gt, nil
}

// gridTraced runs the grid's traced pass: a one-worker rep (each cell's
// time is the gap between consecutive completions), a two-worker rep
// (the tail one worker spends alone), and every cell of the grid again
// outside the session, wrapped for layer timing. The direct cells must
// reproduce the grid's speedups exactly — that both checks the grid
// against an independent computation and shows the layer times are the
// grid's own simulations.
func gridTraced(r *result, sp spec.SpecV1, benches []workload.Params, plan []gridCell, warm, measure uint64, gridS float64) error {
	serial, err := timedGrid(r, benches, warm, measure, 1, len(plan))
	if err != nil {
		return err
	}
	var prev, cellMax time.Duration
	for _, t := range serial.stamps {
		cellMax = max(cellMax, t-prev)
		prev = t
	}
	serialS := prev.Seconds()
	r.sample("exp.serial_cell_s_sum", serialS)
	r.sample("exp.cell_s_max", cellMax.Seconds())
	r.sample("exp.collect_ms", (serial.total-prev).Seconds()*1e3)
	r.sample("exp.parallel_efficiency", serialS/(gridWorkers*gridS))

	par, err := timedGrid(r, benches, warm, measure, gridWorkers, len(plan))
	if err != nil {
		return err
	}
	n := len(par.stamps)
	r.sample("exp.tail_s", (par.stamps[n-1] - par.stamps[max(n-2, 0)]).Seconds())
	r.sample("exp.runs", float64(par.sess.Runs()))
	r.sample("exp.shared_hits", float64(par.sess.SharedHits()))
	r.sample("exp.failures", float64(par.sess.Failures()))
	if err := timeEncode(r, metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpexp", Grids: []metrics.GridV1{par.grid}}); err != nil {
		return err
	}

	// The cells, directly. The first EBCP cell's access stream is
	// captured for replay.
	var lt layerTimes
	var counts simCounts
	var capture *timedPrefetcher
	var captureCfg sim.Config
	var captureLanes int
	results := map[string]sim.CMPResult{}
	var cellTotal time.Duration
	for _, gc := range plan {
		runtime.GC()
		start := time.Now()
		pf, err := cellPrefetcher(gc.cell)
		if err != nil {
			return err
		}
		tr := &tracer{}
		if capture == nil && ebcpOf(pf) != nil {
			tr.captureLimit = captureLimit
		}
		w, m := laneInsts(warm, measure, gc.cell.Cores)
		c, err := newCell(gc.bench, gc.cell.Cores, true, pf, w, m, tr)
		if err != nil {
			return err
		}
		runStart := time.Now()
		out, err := c.run()
		elapsed := time.Since(runStart)
		cellTotal += time.Since(start)
		var o op
		out.check(&o, err, "")
		r.check(o)
		lt.add(tr.times(elapsed))
		counts.add(out.agg, c.pf)
		results[cellKey(gc.bench.Name, gc.name)] = out.cmp
		if tr.pfs[0].capture != nil {
			capture, captureCfg, captureLanes = tr.pfs[0], c.cfg, gc.cell.Cores
		}
	}
	counts.record(r)
	r.check(checkSpeedups(sp, benches, par.grid, results))
	r.sample("sim.trace_overhead_pct", 100*(cellTotal.Seconds()/serialS-1))
	if capture == nil {
		return fmt.Errorf("the %s grid has no EBCP cell to capture", gridSpec)
	}
	timerNS, err := replay(r, capture, captureCfg, captureLanes)
	if err != nil {
		return err
	}
	lt.record(r, timerNS)
	return nil
}

// cellPrefetcher builds a cell's prefetcher through the registry, as the
// spec compiler does.
func cellPrefetcher(c spec.CellV1) (prefetch.Prefetcher, error) {
	entry, err := registry.Prefetcher(c.Prefetcher.Name)
	if err != nil {
		return nil, err
	}
	pf, err := entry.New(c.Prefetcher.Params, c.Cores)
	if err != nil {
		return nil, err
	}
	return registry.WrapFilter(pf, c.Prefetcher.Filter)
}

// cellKey names one cell of one benchmark in a map of direct results.
func cellKey(bench, cell string) string { return bench + "/" + cell }

// checkSpeedups compares every value of the grid with the speedup the
// directly simulated cells give: 100 × (IPC / baseline IPC − 1), bit for
// bit. One check covers the whole grid.
func checkSpeedups(sp spec.SpecV1, benches []workload.Params, grid metrics.GridV1, results map[string]sim.CMPResult) op {
	var o op
	k := 0
	for _, g := range sp.Rows {
		if !g.PerBenchmark {
			o.expect(false, "row group without per_benchmark rows")
			return o
		}
		for _, b := range benches {
			for _, row := range g.Rows {
				if k >= len(grid.Rows) {
					o.expect(false, "grid has %d rows, the spec more", len(grid.Rows))
					return o
				}
				got := grid.Rows[k]
				k++
				label := strings.ReplaceAll(row.Label, spec.BenchPlaceholder, b.Name)
				o.expect(got.Label == label, "row %q, want %q", got.Label, label)
				for j, name := range row.Cells {
					res := results[cellKey(b.Name, name)]
					base := results[cellKey(b.Name, sp.Cells[name].Baseline)]
					want := 100 * (res.Speedup(base) - 1)
					o.expect(j < len(got.Values) && got.Values[j] != nil && *got.Values[j] == want && !math.IsNaN(want),
						"%s column %d differs from the direct simulation's %v", label, j, want)
				}
			}
		}
	}
	o.expect(k == len(grid.Rows), "grid has %d rows, the spec %d", len(grid.Rows), k)
	return o
}
