// Command bench is the repository's end-to-end benchmark. It runs one or
// all of five workloads — two single-core simulations, a 16-lane CMP
// simulation, the canonical cmp experiment grid and the ebcpd daemon
// under a closed-loop client — inside one process, times them, checks
// their outputs, and prints one JSON line summarizing the run:
//
//	go run . -workload sim-db-ebcp -seed 1 -seconds 20 -trace 0
//
// Each workload runs one untimed warm-up rep, then timed reps for the
// given number of seconds with a forced GC between reps outside the
// timers. With -trace 1 a separate traced pass follows, which times the
// layers from outside and yields the per-layer metrics. -out writes the
// full result document: every metric with its sample count, median and
// quartiles, the checks and the simulated-output fingerprint.
//
//	go run . compare a.json b.json
//
// compares two result documents metric by metric. README.md describes the
// workloads, the metrics and their bounds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is how long each workload's timed reps run by default —
// the run length BENCHMARK.json declares.
const defaultSeconds = 20

// settings are one invocation's parameters.
type settings struct {
	seed    int64
	timed   time.Duration
	traced  bool
	minReps int
	// tiny divides every instruction window by tinyDiv (the smoke test).
	tiny bool
	log  io.Writer
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	run       func(s settings, r *result) error
}

// workloads lists every workload in run order.
var workloads = []workloadDef{
	{"sim-db-ebcp", "ebcpsim's headline cell: Database with the tuned EBCP, where the prefetcher is a large share of host time", runSimDBEBCP},
	{"sim-jbb-base", "the baseline cell every experiment needs: SPECjbb2005 without prefetching, so a prefetcher-only change must read as no change", runSimJBBBase},
	{"cmp-jbb-16", "16 SPECjbb2005 lanes on the CMP engine with a 16-thread EBCP, stressing the run-ahead coordinator", runCMPJBB16},
	{"grid-cmp", "the canonical cmp grid through exp.Session with two workers: spec resolution, scheduling, memo and 36 CMP cells", runGridCMP},
	{"serve-mix", "ebcpd under a synthetic mix from one closed-loop client (no request log exists): nine in ten requests hit the result cache, one in ten simulates", runServeMix},
}

// result accumulates one workload's samples and checks.
type result struct {
	checks
	fingerprint string
	series      map[string][]float64
}

func newResult() *result { return &result{series: map[string][]float64{}} }

// sample appends samples to a metric.
func (r *result) sample(name string, v ...float64) {
	r.series[name] = append(r.series[name], v...)
}

// setFingerprint records the first rep's output hash.
func (r *result) setFingerprint(fp string) {
	if r.fingerprint == "" {
		r.fingerprint = fp
	}
}

// workloadV1 summarizes the result; a sample series with no declared
// metric is a bug and an error.
func (r *result) workloadV1(name string) (WorkloadV1, error) {
	w := WorkloadV1{
		Name:        name,
		Fingerprint: r.fingerprint,
		Attempted:   r.attempted,
		Failed:      r.failed,
		Failures:    r.failures,
	}
	for _, n := range sortedNames(r.series) {
		d, ok := defByName(n)
		if !ok {
			return w, fmt.Errorf("workload %s sampled undeclared metric %s", name, n)
		}
		s := summarize(r.series[n])
		w.Metrics = append(w.Metrics, MetricV1{
			Name: n, Scope: d.Scope, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
			N: s.N, Mean: s.Mean, Median: s.Median, Q1: s.Q1, Q3: s.Q3, TailP: s.TailP, Tail: s.Tail,
		})
	}
	return w, nil
}

// timedReps runs rep once as an untimed warm-up (index -1), then with
// indexes 0, 1, ... until d has elapsed and at least minReps ran. The
// previous rep's garbage is collected before each rep, outside its
// timers.
func timedReps(d time.Duration, minReps int, rep func(i int) error) error {
	if err := rep(-1); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		runtime.GC()
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// heapMB forces a collection and returns the live heap in MB; callers keep
// the model they measure referenced across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocs returns the process's cumulative allocation count and bytes.
func allocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+" or all")
	seed := fs.Int64("seed", 1, "input seed: offsets every workload generator seed (1 keeps the canonical seeds)")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the timed reps of each workload run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics; 0 prints the end-to-end metrics")
	out := fs.String("out", "", "write the full result document to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments (see -h)")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	s := settings{
		seed:    *seed,
		timed:   time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
		minReps: 3,
		log:     stderr,
	}
	doc, err := runWorkloads(s, selected)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	doc.Seconds = *seconds
	if *out != "" {
		if err := writeDocFile(*out, doc); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	scope := scopeEndToEnd
	if s.traced {
		scope = scopeLayer
	}
	line, err := summaryLine(doc.Workloads, scope)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if _, err := stdout.Write(line); err != nil {
		return 1
	}
	return 0
}

// runWorkloads runs the selected workloads in order.
func runWorkloads(s settings, selected []workloadDef) (DocV1, error) {
	doc := DocV1{
		Schema:     schemaV1,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       s.seed,
		Traced:     s.traced,
	}
	for _, w := range selected {
		start := time.Now()
		r := newResult()
		if err := w.run(s, r); err != nil {
			return doc, fmt.Errorf("%s: %w", w.name, err)
		}
		wr, err := r.workloadV1(w.name)
		if err != nil {
			return doc, err
		}
		fmt.Fprintf(s.log, "%s: %d ops, %d failed, fingerprint %s, %.1fs\n",
			w.name, wr.Attempted, wr.Failed, wr.Fingerprint, time.Since(start).Seconds())
		for _, f := range wr.Failures {
			fmt.Fprintf(s.log, "  FAILED: %s\n", f)
		}
		doc.Workloads = append(doc.Workloads, wr)
	}
	return doc, nil
}

func writeDocFile(path string, doc DocV1) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeDoc(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
