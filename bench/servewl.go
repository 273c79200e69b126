package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/serve"
	"ebcp/internal/sim"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// The serving mix: a closed loop of one client (it sends its next request
// when the previous reply arrives, like ebcpd's callers) against an
// in-process daemon with its default configuration, running on
// serveProcs Ps. Every serveMissEvery-th request asks for windows nobody
// asked for before, so it simulates and inserts into the result cache; the
// rest ask for one of serveHotKeys requests warmed at setup and are served
// from the cache.
//
// The mix is synthetic: no ebcpd request log exists to take a hit ratio or
// a key population from. Hits dominate because re-querying a stable space
// is the use the daemon is built for; the ratio and the key count are
// chosen so that a one-second slice holds about 60 misses and 550 hits on
// a 2-vCPU host.
//
// A second client or a second P hands simulation, hits and the garbage
// collector to the other vCPU, and on a shared 2-vCPU host the results
// then follow how the host schedules the two: with one client, the same
// code read 300–360 simulated Minsts/s on two Ps and 430–490 on one P,
// alternating in the same minutes.
const (
	serveProcs      = 1
	serveExperiment = "table1"
	serveHotKeys    = 8
	serveMissEvery  = 10
	serveScale      = 0.05
	serveMeasure    = 1_000_000
	// Hot keys warm for 100K–299K instructions, misses from 500K up, so
	// the two never share a cache key.
	serveHotWarm  = 100_000
	serveHotStep  = 1_000
	serveMissWarm = 500_000
	// serveSetups is how many times a run sets the daemon up; setup_s is
	// the median.
	serveSetups = 5
	// hitPathReps is how many times each hit-path call is timed.
	hitPathReps = 200
	// serveSlices is how many equal time slices the closed loop is cut
	// into (a second each at the default run length); each slice gives
	// one sample of every rate, mean and median.
	serveSlices = 20
)

// serveInputs are the request windows a seed selects.
type serveInputs struct {
	hotWarm  []uint64
	missWarm uint64
	measure  uint64
}

func newServeInputs(seed int64, tiny bool) serveInputs {
	rng := rand.New(rand.NewSource(seed))
	div := uint64(1)
	if tiny {
		div = tinyDiv
	}
	in := serveInputs{missWarm: serveMissWarm / div, measure: serveMeasure / div}
	for _, k := range rng.Perm(200)[:serveHotKeys] {
		in.hotWarm = append(in.hotWarm, (serveHotWarm+uint64(k)*serveHotStep)/div)
	}
	return in
}

func (in serveInputs) body(warm uint64) ([]byte, error) {
	return json.Marshal(serve.RunRequestV1{
		Schema:       serve.RequestSchemaV1,
		Experiment:   serveExperiment,
		WarmInsts:    warm,
		MeasureInsts: in.measure,
		BenchScale:   serveScale,
	})
}

// daemon is one in-process ebcpd on a loopback listener, with the client
// the benchmark talks to it through and the warmed hot-key responses.
type daemon struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	hot     [][]byte
	hotResp [][]byte
}

// startDaemon builds a daemon and warms its hot keys; each warm-up
// request is one checked operation.
func startDaemon(r *result, in serveInputs) (*daemon, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	for _, w := range in.hotWarm {
		body, err := in.body(w)
		if err != nil {
			return d, err
		}
		status, resp, err := d.post(body)
		var o op
		if o.noErr(err, "warm-up request") {
			checkResponse(&o, status, resp, nil)
		}
		r.check(o)
		d.hot = append(d.hot, body)
		d.hotResp = append(d.hotResp, resp)
	}
	return d, nil
}

func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop shuts the listener, then drains the daemon's workers.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.srv.Drain(ctx)
}

// checkResponse records the problems of one reply: a status other than
// 200, a body that fails strict decoding or holds n/a cells, and — for a
// hot key — bytes that differ from the key's warm-up reply.
func checkResponse(o *op, status int, body, want []byte) {
	if status != http.StatusOK {
		o.expect(false, "status %d: %.200s", status, body)
		return
	}
	rep, err := metrics.DecodeReportV1(bytes.NewReader(body))
	if !o.noErr(err, "response") {
		return
	}
	if len(rep.Grids) != 1 || rep.Grids[0].ID != serveExperiment {
		o.expect(false, "response holds %d grids, want one %s grid", len(rep.Grids), serveExperiment)
		return
	}
	g := rep.Grids[0]
	o.expect(g.NACells == 0, "%d n/a cells", g.NACells)
	for _, row := range g.Rows {
		for _, v := range row.Values {
			o.expect(v != nil, "row %q has a null value", row.Label)
		}
	}
	if want != nil {
		o.expect(bytes.Equal(body, want), "hot-key response differs from its warm-up response")
	}
}

// reqSample is one timed request: its latency, when it ended (from the
// start of the closed loop), and for a miss the instructions its cells
// simulated.
type reqSample struct {
	d, end time.Duration
	miss   bool
	insts  uint64
}

func runServeMix(s settings, r *result) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	in := newServeInputs(s.seed, s.tiny)
	sp, err := exp.CanonicalSpec(serveExperiment)
	if err != nil {
		return err
	}
	benches := scaledBenches()
	cells := len(gridPlan(sp, benches))

	// Setup, serveSetups times; the last daemon serves the timed phase.
	var d *daemon
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		_, b0 := allocs()
		start := time.Now()
		d, err = startDaemon(r, in)
		setup := time.Since(start)
		_, b1 := allocs()
		if err != nil {
			if d != nil {
				_ = d.stop() // the setup error is the one to report
			}
			return err
		}
		r.sample("setup_s", setup.Seconds())
		r.sample("setup.alloc_mb", mb(b1-b0))
		r.sample("live_heap_mb", heapMB())
		runtime.KeepAlive(d)
		fp, err := fingerprint(d.hotResp)
		if err != nil {
			return err
		}
		r.setFingerprint(fp)
		var o op
		o.expect(fp == r.fingerprint, "warmed responses differ between setups")
		r.check(o)
	}
	defer func() { _ = d.stop() }() // a stop error after the checks changes nothing

	c0, b0 := allocs()
	samples, elapsed := closedLoop(r, d, in, s, uint64(cells))
	c1, b1 := allocs()
	var hits, misses []float64
	for _, q := range samples {
		ms := q.d.Seconds() * 1e3
		if q.miss {
			misses = append(misses, ms)
		} else {
			hits = append(hits, ms)
		}
	}
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("%d hits and %d misses in %v: too short a run", len(hits), len(misses), elapsed)
	}
	sampleSlices(r, samples, s.timed, elapsed)
	r.sample("serve.hits", float64(len(hits)))
	r.sample("serve.misses", float64(len(misses)))
	sort.Float64s(hits)
	sort.Float64s(misses)
	r.sample("serve.hit_p99_ms", quantile(hits, 0.99))
	r.sample("serve.miss_p99_ms", quantile(misses, 0.99))
	r.sample("runtime.allocs_per_op", float64(c1-c0)/float64(len(samples)))
	r.sample("runtime.alloc_mb_per_op", mb(b1-b0)/float64(len(samples)))

	st := d.srv.Stats()
	var o op
	o.expect(st.Failed == 0, "%d requests failed", st.Failed)
	o.expect(st.Rejected == 0, "%d requests rejected", st.Rejected)
	r.check(o)
	r.sample("serve.queue_wait_us_p50", histP50(st.QueueWaitUS))
	r.sample("serve.cache_hit_ratio", st.Cache.HitRatio)
	r.sample("serve.sim_runs", float64(st.SimRuns))
	r.sample("serve.sim_shared", float64(st.SimShared))
	r.sample("serve.evictions", float64(st.Cache.Evictions))
	r.sample("serve.rejected", float64(st.Rejected))
	if !s.traced {
		return nil
	}
	return serveTraced(r, d, in, sp, benches, summarize(r.series["hit_p50_ms"]).Median)
}

// sampleSlices cuts the closed loop into serveSlices equal slices of the
// timed phase (the last one also holds the requests finishing after the
// deadline) and samples, per slice, the request and simulated-instruction
// rates, the mean latency of all requests and the median latency of hits
// and of misses. A request belongs to the slice it ended in, except that a miss's
// instructions are spread over the slices it ran in. A slice without a
// miss gives no miss latency.
func sampleSlices(r *result, samples []reqSample, timed, elapsed time.Duration) {
	slice := timed / serveSlices
	bounds := func(i int) (time.Duration, time.Duration) {
		if i == serveSlices-1 {
			return slice * time.Duration(i), elapsed
		}
		return slice * time.Duration(i), slice * time.Duration(i+1)
	}
	var all, hits, misses [serveSlices][]float64
	var insts [serveSlices]float64
	for _, q := range samples {
		i := min(int(q.end/slice), serveSlices-1)
		ms := q.d.Seconds() * 1e3
		all[i] = append(all[i], ms)
		if !q.miss {
			hits[i] = append(hits[i], ms)
			continue
		}
		misses[i] = append(misses[i], ms)
		for j := 0; j <= i; j++ {
			lo, hi := bounds(j)
			if overlap := min(hi, q.end) - max(lo, q.end-q.d); overlap > 0 {
				insts[j] += float64(q.insts) * overlap.Seconds() / q.d.Seconds()
			}
		}
	}
	for i := range all {
		lo, hi := bounds(i)
		secs := (hi - lo).Seconds()
		r.sample("req_per_s", float64(len(all[i]))/secs)
		r.sample("minsts_per_s", insts[i]/secs/1e6)
		if len(all[i]) > 0 {
			r.sample("op_ms", summarize(all[i]).Mean)
		}
		for name, xs := range map[string][]float64{"hit_p50_ms": hits[i], "miss_p50_ms": misses[i]} {
			if len(xs) > 0 {
				r.sample(name, summarize(xs).Median)
			}
		}
	}
}

// closedLoop runs the client until s.timed has elapsed and returns every
// request with its latency and end time, and the elapsed time. A miss
// simulates cells table cells over its warm-up and measured windows.
func closedLoop(r *result, d *daemon, in serveInputs, s settings, cells uint64) ([]reqSample, time.Duration) {
	var all []reqSample
	rng := rand.New(rand.NewSource(s.seed))
	missWarm := in.missWarm
	start := time.Now()
	for n := 1; time.Since(start) < s.timed; n++ {
		miss := n%serveMissEvery == 0
		var body, want []byte
		var insts uint64
		var o op
		if miss {
			missWarm++
			var err error
			body, err = in.body(missWarm)
			o.noErr(err, "request")
			insts = cells * (missWarm + in.measure)
		} else {
			k := rng.Intn(serveHotKeys)
			body, want = d.hot[k], d.hotResp[k]
		}
		t := time.Now()
		status, resp, err := d.post(body)
		lat := time.Since(t)
		if o.noErr(err, "request") {
			checkResponse(&o, status, resp, want)
		}
		r.check(o)
		all = append(all, reqSample{lat, t.Add(lat).Sub(start), miss, insts})
	}
	return all, time.Since(start)
}

// histP50 is the upper bound of the bucket holding a histogram's median.
func histP50(h metrics.Histogram) float64 {
	var n uint64
	for i, b := range h.Buckets {
		n += b
		if 2*n >= h.Count && h.Count > 0 {
			_, hi := metrics.BucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}

// scaledBenches is the workload set a bench_scale request runs.
func scaledBenches() []workload.Params {
	var out []workload.Params
	for _, b := range workload.All() {
		s, err := workload.Scaled(b, serveScale)
		if err != nil {
			continue // serveScale is a valid constant factor
		}
		out = append(out, s)
	}
	return out
}

// serveTraced runs the daemon's traced pass. The hit path is timed by its
// public calls — request decoding, the experiment run over a warmed
// result cache, report encoding — and the HTTP glue is what is left of
// the hit latency. The simulations behind a miss are the hot key's table1
// cells run directly, untraced then wrapped; they must reproduce the
// daemon's reply exactly.
func serveTraced(r *result, d *daemon, in serveInputs, sp spec.SpecV1, benches []workload.Params, hitMS float64) error {
	var decode []float64
	for i := 0; i < hitPathReps; i++ {
		start := time.Now()
		_, err := serve.DecodeRunRequest(bytes.NewReader(d.hot[0]))
		decode = append(decode, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
	}
	e, err := exp.ByID(serveExperiment)
	if err != nil {
		return err
	}
	opts := exp.Options{Warm: in.hotWarm[0], Measure: in.measure, Workers: 1, Benchmarks: benches, Cache: serve.NewCache(0)}
	report := func() metrics.ReportV1 {
		grid := e.Run(exp.NewSession(opts)).GridV1()
		return metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpd", Grids: []metrics.GridV1{grid}}
	}
	doc := report()
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, doc); err != nil {
		return err
	}
	var o op
	o.expect(bytes.Equal(buf.Bytes(), d.hotResp[0]), "a session over a warmed cache answers differently from the daemon")
	r.check(o)
	var hit []float64
	for i := 0; i < hitPathReps; i++ {
		start := time.Now()
		report()
		hit = append(hit, float64(time.Since(start).Nanoseconds())/1e3)
	}
	if err := timeEncode(r, doc); err != nil {
		return err
	}
	r.sample("serve.decode_us", decode...)
	r.sample("exp.hit_run_us", hit...)
	glue := hitMS*1e3 - summarize(decode).Median - summarize(hit).Median - summarize(r.series["metrics.encode_us"]).Median
	r.sample("serve.http_glue_us", glue)

	// The miss path's simulations.
	plan := gridPlan(sp, benches)
	runCells := func(tr *tracer) (tableRun, error) {
		run := tableRun{res: map[string]sim.Result{}}
		for _, gc := range plan {
			pf, err := cellPrefetcher(gc.cell)
			if err != nil {
				return run, err
			}
			c, err := newCell(gc.bench, 1, false, pf, in.hotWarm[0], in.measure, tr)
			if err != nil {
				return run, err
			}
			start := time.Now()
			out, err := c.run()
			run.total += time.Since(start)
			var o op
			out.check(&o, err, "")
			r.check(o)
			run.res[cellKey(gc.bench.Name, gc.name)] = out.single
			run.counts.add(out.agg, c.pf)
			run.cfg = c.cfg
		}
		return run, nil
	}
	var untraced, traced []float64
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		run, err := runCells(nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, run.total.Seconds())
	}
	tr := &tracer{captureLimit: captureLimit}
	run, err := runCells(tr)
	if err != nil {
		return err
	}
	r.check(checkTable(sp, benches, d.hotResp[0], run.res))
	run.counts.record(r)
	timerNS, err := replay(r, tr.pfs[0], run.cfg, 1)
	if err != nil {
		return err
	}
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		tr := &tracer{}
		run, err := runCells(tr)
		if err != nil {
			return err
		}
		tr.times(run.total).record(r, timerNS)
		traced = append(traced, run.total.Seconds())
	}
	r.sample("sim.trace_overhead_pct", 100*(summarize(traced).Median/summarize(untraced).Median-1))
	return nil
}

// tableRun is one pass over a table's cells, simulated directly: the
// time the runs took, each cell's result keyed by benchmark/cell, and
// their summed counters.
type tableRun struct {
	total  time.Duration
	res    map[string]sim.Result
	counts simCounts
	cfg    sim.Config
}

// tableMetrics computes the single-core report metrics a table1-shaped
// spec uses, exactly as the experiment does.
var tableMetrics = map[string]func(sim.Result) float64{
	"cpi":         sim.Result.CPI,
	"epki":        sim.Result.EPKI,
	"ifetch_mpki": sim.Result.IFetchMPKI,
	"load_mpki":   sim.Result.LoadMPKI,
}

// checkTable compares a benchmark-column report the daemon sent with the
// values the directly simulated cells give, bit for bit.
func checkTable(sp spec.SpecV1, benches []workload.Params, body []byte, res map[string]sim.Result) op {
	var o op
	rep, err := metrics.DecodeReportV1(bytes.NewReader(body))
	if !o.noErr(err, "response") || len(rep.Grids) != 1 {
		o.expect(false, "no grid to compare")
		return o
	}
	grid := rep.Grids[0]
	k := 0
	for _, g := range sp.Rows {
		for _, row := range g.Rows {
			f, ok := tableMetrics[row.Metric]
			if !ok || g.PerBenchmark || k >= len(grid.Rows) {
				o.expect(false, "row %q cannot be compared", row.Label)
				return o
			}
			got := grid.Rows[k]
			k++
			for j, b := range benches {
				want := f(res[cellKey(b.Name, row.Cells[0])])
				o.expect(j < len(got.Values) && got.Values[j] != nil && *got.Values[j] == want,
					"%s %s differs from the direct simulation's %v", row.Label, b.Name, want)
			}
		}
	}
	return o
}
