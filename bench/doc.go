package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ebcp/internal/metrics"
)

// schemaV1 identifies the full result document (-out) and the input of
// the compare subcommand.
const schemaV1 = "ebcp.benchrun/v1"

// Metric scopes: an end-to-end metric is what a user of the simulator,
// the experiment runner or the daemon waits for; a per-layer metric
// attributes it to one module.
const (
	scopeEndToEnd = "end_to_end"
	scopeLayer    = "per_layer"
)

// metricDef declares one metric. Every workload reports every metric
// with all set; those form BENCHMARK.json and the summary line. The rest
// exist only on the workloads whose layer has them and appear only in
// the full document.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Scope  string
	// Bound is the share of the reference value an end-to-end metric may
	// worsen by before compare calls it worse.
	Bound float64
	All   bool
	// Mean makes the mean of the run's samples its value, where others
	// take the median. The host alternates between a fast and a slow state
	// lasting seconds; the mean of a rate or a time sampled across the run
	// weighs the two by their share of it, where the median snaps to
	// whichever holds the most samples.
	Mean bool
}

// metricDefs lists every metric in output order.
var metricDefs = []metricDef{
	// End-to-end. Simulated statistics are deliberately absent: a change
	// to host speed must leave them identical (the fingerprint checks
	// that), so they cannot measure one.
	{Name: "minsts_per_s", Unit: "Minsts/s", Better: "higher", Scope: scopeEndToEnd, Bound: 0.25, All: true, Mean: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Scope: scopeEndToEnd, Bound: 0.25, All: true},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Scope: scopeEndToEnd, Bound: 0.05, All: true},
	// The mean time of one operation: a simulation run, a grid, or a
	// daemon request. Nine requests in ten are cache hits, but the misses
	// take nearly all of the daemon's time.
	{Name: "op_ms", Unit: "ms", Better: "lower", Scope: scopeEndToEnd, Bound: 0.25, All: true, Mean: true},
	// Gated by compare only: the daemon's alone. The hit latency spreads
	// too far from run to run on a shared host to gate in BENCHMARK.json.
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Scope: scopeEndToEnd, Bound: 0.25, Mean: true},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Scope: scopeEndToEnd, Bound: 0.25},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower", Scope: scopeEndToEnd, Bound: 0.25},

	// Host time of the simulator's layers, from the traced pass.
	{Name: "workload.ns_per_record", Unit: "ns", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "workload.share", Unit: "fraction", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "prefetch.ns_per_access", Unit: "ns", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "prefetch.share", Unit: "fraction", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "prefetch.accesses", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "sim.self_ns_per_record", Unit: "ns", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "sim.share", Unit: "fraction", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "sim.trace_overhead_pct", Unit: "%", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "replay.core_ns_per_access", Unit: "ns", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "replay.cache_ns_per_access", Unit: "ns", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "metrics.encode_us", Unit: "us", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "setup.alloc_mb", Unit: "MB", Better: "lower", Scope: scopeLayer, All: true},

	// Simulated counts of the traced simulations: they explain host time
	// per event and repeat exactly for a seed.
	{Name: "cpu.cpi", Unit: "cyc/inst", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "cpu.epochs_per_kinst", Unit: "1/kinst", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "cache.l1_mpki", Unit: "1/kinst", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "cache.l2_mpki", Unit: "1/kinst", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "cache.pb_hits", Unit: "count", Better: "higher", Scope: scopeLayer, All: true},
	{Name: "mem.reads", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "mem.drops", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "prefetch.issued", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "prefetch.redundant", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "prefetch.accuracy", Unit: "fraction", Better: "higher", Scope: scopeLayer, All: true},
	{Name: "prefetch.coverage", Unit: "fraction", Better: "higher", Scope: scopeLayer, All: true},
	{Name: "prefetch.timeliness", Unit: "fraction", Better: "higher", Scope: scopeLayer, All: true},
	{Name: "core.lookups", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "core.match_rate", Unit: "fraction", Better: "higher", Scope: scopeLayer, All: true},
	{Name: "core.trainings", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "corrtab.occupancy", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},
	{Name: "corrtab.conflicts", Unit: "count", Better: "lower", Scope: scopeLayer, All: true},

	// Layer metrics only some workloads have.
	{Name: "prefetch.timer_ns_per_call", Unit: "ns", Better: "lower", Scope: scopeLayer},
	{Name: "exp.runs", Unit: "count", Better: "lower", Scope: scopeLayer},
	{Name: "exp.shared_hits", Unit: "count", Better: "higher", Scope: scopeLayer},
	{Name: "exp.failures", Unit: "count", Better: "lower", Scope: scopeLayer},
	{Name: "exp.serial_cell_s_sum", Unit: "s", Better: "lower", Scope: scopeLayer},
	{Name: "exp.cell_s_max", Unit: "s", Better: "lower", Scope: scopeLayer},
	{Name: "exp.parallel_efficiency", Unit: "fraction", Better: "higher", Scope: scopeLayer},
	{Name: "exp.tail_s", Unit: "s", Better: "lower", Scope: scopeLayer},
	{Name: "exp.collect_ms", Unit: "ms", Better: "lower", Scope: scopeLayer},
	{Name: "exp.hit_run_us", Unit: "us", Better: "lower", Scope: scopeLayer},
	{Name: "serve.decode_us", Unit: "us", Better: "lower", Scope: scopeLayer},
	{Name: "serve.http_glue_us", Unit: "us", Better: "lower", Scope: scopeLayer},
	{Name: "serve.hit_p99_ms", Unit: "ms", Better: "lower", Scope: scopeLayer},
	{Name: "serve.miss_p99_ms", Unit: "ms", Better: "lower", Scope: scopeLayer},
	{Name: "serve.hits", Unit: "count", Better: "higher", Scope: scopeLayer},
	{Name: "serve.misses", Unit: "count", Better: "lower", Scope: scopeLayer},
	{Name: "serve.queue_wait_us_p50", Unit: "us", Better: "lower", Scope: scopeLayer},
	{Name: "serve.cache_hit_ratio", Unit: "fraction", Better: "higher", Scope: scopeLayer},
	{Name: "serve.sim_runs", Unit: "count", Better: "lower", Scope: scopeLayer},
	{Name: "serve.sim_shared", Unit: "count", Better: "higher", Scope: scopeLayer},
	{Name: "serve.evictions", Unit: "count", Better: "lower", Scope: scopeLayer},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Scope: scopeLayer},
}

// defByName indexes metricDefs.
func defByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// DocV1 is the full result of one benchmark invocation: the host context,
// the settings, and per workload its checks, fingerprint and every metric
// with its samples summarized.
type DocV1 struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Traced     bool         `json:"traced"`
	Workloads  []WorkloadV1 `json:"workloads"`
}

// WorkloadV1 is one workload's result. Fingerprint hashes the simulated
// output of the first rep (snapshots, grid or report bytes): two commits
// that only change host speed must print the same fingerprint for a seed.
type WorkloadV1 struct {
	Name        string     `json:"name"`
	Fingerprint string     `json:"fingerprint"`
	Attempted   int        `json:"attempted"`
	Failed      int        `json:"failed"`
	Failures    []string   `json:"failures,omitempty"`
	Metrics     []MetricV1 `json:"metrics"`
}

// MetricV1 is one metric's summary. TailP/Tail give the highest
// percentile with at least ten samples beyond it, when there is one.
type MetricV1 struct {
	Name   string  `json:"name"`
	Scope  string  `json:"scope"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

// value is the metric's value for the run: the mean of its samples for a
// metric declared with Mean, their median otherwise.
func (m MetricV1) value() float64 {
	if d, ok := defByName(m.Name); ok && d.Mean {
		return m.Mean
	}
	return m.Median
}

// decodeDoc strictly parses a result document: unknown fields, another
// schema or trailing data are errors.
func decodeDoc(r io.Reader) (DocV1, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d DocV1
	if err := dec.Decode(&d); err != nil {
		return DocV1{}, fmt.Errorf("decoding result document: %w", err)
	}
	if d.Schema != schemaV1 {
		return DocV1{}, fmt.Errorf("result document schema %q, want %q", d.Schema, schemaV1)
	}
	if dec.More() {
		return DocV1{}, fmt.Errorf("result document has trailing data")
	}
	return d, nil
}

// writeDoc encodes a result document with the repository's canonical
// encoder.
func writeDoc(w io.Writer, d DocV1) error {
	return metrics.WriteJSON(w, d)
}

// lineV1 is the one-line summary printed last on standard output.
type lineV1 struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]valueV1 `json:"metrics"`
}

type valueV1 struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine builds the last output line from workload results: the
// value of every metric all workloads report in the given scope. With
// several workloads each name is prefixed by its workload.
func summaryLine(ws []WorkloadV1, scope string) ([]byte, error) {
	l := lineV1{Metrics: map[string]valueV1{}}
	for _, w := range ws {
		l.Attempted += w.Attempted
		l.Failed += w.Failed
		got := map[string]MetricV1{}
		for _, m := range w.Metrics {
			got[m.Name] = m
		}
		for _, d := range metricDefs {
			if !d.All || d.Scope != scope {
				continue
			}
			m, ok := got[d.Name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not report %s", w.Name, d.Name)
			}
			key := d.Name
			if len(ws) > 1 {
				key = w.Name + "." + d.Name
			}
			l.Metrics[key] = valueV1{Value: m.value(), Unit: m.Unit}
		}
	}
	l.Correct = l.Failed == 0 && l.Attempted > 0
	// metrics.WriteJSON indents; the summary must be one line.
	b, err := json.Marshal(l)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sortedNames returns the keys of a sample set in metricDefs order.
func sortedNames(series map[string][]float64) []string {
	order := map[string]int{}
	for i, d := range metricDefs {
		order[d.Name] = i
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	return names
}
