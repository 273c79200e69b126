package main

import (
	"bytes"
	"runtime"
	"time"

	"ebcp/internal/core"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// seeded offsets a workload's generator seed by the benchmark seed; seed
// 1 keeps the canonical seed.
func seeded(p workload.Params, seed int64) workload.Params {
	p.Seed += seed - 1
	return p
}

// cell is one simulation ready to run: lanes trace sources (lane j runs
// the benchmark at seed + 7919·j, as the CMP experiments do), one
// prefetcher and the system it runs on. Single-lane cells run on
// sim.Runner, the ebcpsim path, unless onCMP selects the CMP engine the
// experiment grid uses for every cmp cell.
type cell struct {
	cfg    sim.Config
	srcs   []trace.Source
	pf     prefetch.Prefetcher
	runner *sim.Runner
}

// newCell builds a cell; with a tracer its sources and prefetcher are
// wrapped for timing.
func newCell(b workload.Params, lanes int, onCMP bool, pf prefetch.Prefetcher, warm, measure uint64, tr *tracer) (*cell, error) {
	c := &cell{cfg: sim.DefaultConfig(), srcs: make([]trace.Source, lanes), pf: pf}
	c.cfg.Core.OnChipCPI = b.OnChipCPI
	c.cfg.WarmInsts, c.cfg.MeasureInsts = warm, measure
	for j := range c.srcs {
		p := b
		p.Seed += int64(j) * 7919
		g, err := workload.New(p)
		if err != nil {
			return nil, err
		}
		c.srcs[j] = g
		if tr != nil {
			c.srcs[j] = tr.source(g)
		}
	}
	if tr != nil {
		var err error
		if c.pf, err = tr.prefetcher(pf); err != nil {
			return nil, err
		}
	}
	if lanes == 1 && !onCMP {
		var err error
		if c.runner, err = sim.NewRunner(c.cfg, c.pf); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// run simulates the cell.
func (c *cell) run() (outcome, error) {
	if c.runner != nil {
		res, err := c.runner.Run(c.srcs[0])
		return singleOutcome(res, c.cfg.WarmInsts), err
	}
	res, err := sim.RunCMP(c.srcs, c.pf, c.cfg)
	if err != nil {
		return outcome{}, err
	}
	return cmpOutcome(res, c.cfg.WarmInsts)
}

// ebcpOf returns the EBCP inside a possibly wrapped prefetcher.
func ebcpOf(pf prefetch.Prefetcher) *core.EBCP {
	if t, ok := pf.(*timedPrefetcher); ok {
		pf = t.inner
	}
	e, _ := pf.(*core.EBCP)
	return e
}

// simCounts sums the simulated counters of one or more simulations; the
// per-layer count metrics are read from it.
type simCounts struct {
	insts, cycles, epochs                uint64
	l1Misses, l2Misses, pbHits, memReads uint64
	memDrops, issued, redundant          uint64
	pbUsed, pbOnTime, demandMisses       uint64
	lookups, matches, trainings          uint64
	occupancy, conflicts                 uint64
}

// add folds one simulation's machine-wide snapshot and, for an EBCP, its
// prefetcher counters.
func (sc *simCounts) add(s metrics.Snapshot, pf prefetch.Prefetcher) {
	sc.insts += s.Core.Instructions
	sc.cycles += s.Core.Cycles
	sc.epochs += s.Core.Epochs
	sc.l1Misses += s.L1I.Misses + s.L1D.Misses
	sc.l2Misses += s.L2.Misses
	sc.pbHits += s.PB.Hits + s.PB.PartialHits
	for _, k := range []metrics.MemClassCounters{s.Mem.Demand, s.Mem.TableRead, s.Mem.Prefetch, s.Mem.TableWrite} {
		sc.memReads += k.Reads
		sc.memDrops += k.ReadDrops + k.WriteDrops
	}
	sc.issued += s.PF.Issued
	sc.redundant += s.PF.Redundant
	sc.pbUsed += s.PBHitIFetch + s.PBHitLoad
	sc.pbOnTime += s.PB.Hits
	sc.demandMisses += s.L2MissIFetch + s.L2MissLoad
	if e := ebcpOf(pf); e != nil {
		st := e.Stats()
		sc.lookups += st.Lookups
		sc.matches += st.Matches
		sc.trainings += st.Trainings
		sc.occupancy += uint64(e.Table().Occupancy())
		sc.conflicts += e.Table().Stats().ConflictEvictions
	}
}

// record adds the count metrics.
func (sc simCounts) record(r *result) {
	in := float64(sc.insts)
	r.sample("cpu.cpi", ratio(float64(sc.cycles), in))
	r.sample("cpu.epochs_per_kinst", 1000*ratio(float64(sc.epochs), in))
	r.sample("cache.l1_mpki", 1000*ratio(float64(sc.l1Misses), in))
	r.sample("cache.l2_mpki", 1000*ratio(float64(sc.l2Misses), in))
	r.sample("cache.pb_hits", float64(sc.pbHits))
	r.sample("mem.reads", float64(sc.memReads))
	r.sample("mem.drops", float64(sc.memDrops))
	r.sample("prefetch.issued", float64(sc.issued))
	r.sample("prefetch.redundant", float64(sc.redundant))
	r.sample("prefetch.accuracy", ratio(float64(sc.pbUsed), float64(sc.issued)))
	r.sample("prefetch.coverage", ratio(float64(sc.pbUsed), float64(sc.pbUsed+sc.demandMisses)))
	r.sample("prefetch.timeliness", ratio(float64(sc.pbOnTime), float64(sc.issued)))
	r.sample("core.lookups", float64(sc.lookups))
	r.sample("core.match_rate", ratio(float64(sc.matches), float64(sc.lookups)))
	r.sample("core.trainings", float64(sc.trainings))
	r.sample("corrtab.occupancy", float64(sc.occupancy))
	r.sample("corrtab.conflicts", float64(sc.conflicts))
}

// encodeReps is how many times an encoder timing repeats; the median of
// the per-call times is reported.
const encodeReps = 50

// timeEncode samples metrics.encode_us: the canonical JSON encoding of a
// result document, as the commands and the daemon emit it.
func timeEncode(r *result, doc metrics.ReportV1) error {
	var buf bytes.Buffer
	for i := 0; i < encodeReps; i++ {
		buf.Reset()
		start := time.Now()
		if err := metrics.WriteJSON(&buf, doc); err != nil {
			return err
		}
		r.sample("metrics.encode_us", float64(time.Since(start).Nanoseconds())/1e3)
	}
	return nil
}

// runReport is the -json document ebcpsim would emit for an outcome.
func runReport(bench string, cfg sim.Config, out outcome) metrics.ReportV1 {
	doc := metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpsim"}
	for _, s := range out.lanes {
		doc.Runs = append(doc.Runs, metrics.RunV1{
			Benchmark: bench, Role: "measured", Config: cfg.MetricsConfig(), Raw: s, Derived: s.Derive(),
		})
	}
	return doc
}

// simWorkload is one simulator workload: a benchmark on lanes cores, with
// the tuned EBCP (tracking every lane) or no prefetcher, and per-lane
// warm-up and measured windows.
type simWorkload struct {
	bench         func() workload.Params
	lanes         int
	ebcp          bool
	warm, measure uint64
}

func runSimDBEBCP(s settings, r *result) error {
	return simWorkload{workload.Database, 1, true, 10_000_000, 40_000_000}.run(s, r)
}

func runSimJBBBase(s settings, r *result) error {
	return simWorkload{workload.SPECjbb2005, 1, false, 10_000_000, 90_000_000}.run(s, r)
}

func runCMPJBB16(s settings, r *result) error {
	return simWorkload{workload.SPECjbb2005, 16, true, 500_000, 2_000_000}.run(s, r)
}

// tracedReps is how many traced reps the per-layer medians come from.
const tracedReps = 5

// tinyDiv shrinks instruction windows in the smoke test.
const tinyDiv = 100

func (w simWorkload) build(s settings, tr *tracer) (*cell, error) {
	var pf prefetch.Prefetcher = prefetch.None{}
	if w.ebcp {
		cfg := core.DefaultConfig()
		cfg.Cores = w.lanes
		e, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		pf = e
	}
	warm, measure := w.warm, w.measure
	if s.tiny {
		warm, measure = warm/tinyDiv, measure/tinyDiv
	}
	return newCell(seeded(w.bench(), s.seed), w.lanes, w.lanes > 1, pf, warm, measure, tr)
}

// run is the timed phase — setup (workload.New, the prefetcher and the
// runner) and the run of each rep timed apart — then, when traced, the
// traced pass.
func (w simWorkload) run(s settings, r *result) error {
	var runS []float64
	err := timedReps(s.timed, s.minReps, func(i int) error {
		_, b0 := allocs()
		start := time.Now()
		c, err := w.build(s, nil)
		setup := time.Since(start)
		if err != nil {
			return err
		}
		c1, b1 := allocs()
		start = time.Now()
		out, err := c.run()
		elapsed := time.Since(start)
		c2, b2 := allocs()
		var o op
		out.check(&o, err, r.fingerprint)
		if r.fingerprint == "" && len(o) == 0 {
			fp, err := fingerprint(out.lanes)
			if err != nil {
				return err
			}
			r.setFingerprint(fp)
		}
		r.check(o)
		heap := heapMB()
		runtime.KeepAlive(c)
		if i < 0 {
			return nil
		}
		runS = append(runS, elapsed.Seconds())
		r.sample("minsts_per_s", float64(out.insts)/elapsed.Seconds()/1e6)
		r.sample("op_ms", elapsed.Seconds()*1e3)
		r.sample("setup_s", setup.Seconds())
		r.sample("live_heap_mb", heap)
		r.sample("runtime.allocs_per_op", float64(c2-c1))
		r.sample("runtime.alloc_mb_per_op", mb(b2-b1))
		r.sample("setup.alloc_mb", mb(b1-b0))
		return nil
	})
	if err != nil || !s.traced {
		return err
	}
	return w.traced(s, r, summarize(runS).Median)
}

// traced runs the traced pass: one rep capturing the access stream for
// replay, then tracedReps timed traced reps.
func (w simWorkload) traced(s settings, r *result, untracedS float64) error {
	tr := &tracer{captureLimit: captureLimit}
	c, err := w.build(s, tr)
	if err != nil {
		return err
	}
	out, err := c.run()
	var o op
	out.check(&o, err, r.fingerprint)
	r.check(o)
	var counts simCounts
	counts.add(out.agg, c.pf)
	counts.record(r)
	if err := timeEncode(r, runReport(w.bench().Name, c.cfg, out)); err != nil {
		return err
	}
	timerNS, err := replay(r, tr.pfs[0], c.cfg, w.lanes)
	if err != nil {
		return err
	}

	var tracedS []float64
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		tr := &tracer{}
		c, err := w.build(s, tr)
		if err != nil {
			return err
		}
		start := time.Now()
		out, err := c.run()
		elapsed := time.Since(start)
		var o op
		out.check(&o, err, r.fingerprint)
		r.check(o)
		tr.times(elapsed).record(r, timerNS)
		tracedS = append(tracedS, elapsed.Seconds())
	}
	r.sample("sim.trace_overhead_pct", 100*(summarize(tracedS).Median/untracedS-1))
	return nil
}
