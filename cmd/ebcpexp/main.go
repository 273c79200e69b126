// Command ebcpexp regenerates the paper's tables and figures.
//
// Examples:
//
//	ebcpexp -exp table1
//	ebcpexp -exp fig4,fig5
//	ebcpexp -exp all -scale 0.2      # 20%-length windows, much faster
//	ebcpexp -exp all -workers 8      # shard simulations over 8 goroutines
//	ebcpexp -exp all -timeout 2m     # render whatever completed in time
//	ebcpexp -exp table1 -json        # one ebcp.report/v1 JSON document
//	ebcpexp -exp frontier            # post-paper contender shootout
//	ebcpexp -spec myexp.json         # run a user-authored ebcp.spec/v1 file
//	ebcpexp -list
//
// Simulations shard across -workers goroutines (default: all CPU cores);
// reports are bit-identical for any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"ebcp/internal/ebcperr"
	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/spec"
)

func main() {
	var (
		which      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		specPath   = flag.String("spec", "", "run one user-authored ebcp.spec/v1 experiment file instead of -exp")
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = flag.Float64("scale", 1.0, "scale the warm/measure windows (1.0 = paper's 150M+100M)")
		maxInsts   = flag.Float64("max-insts", 0, "truncate every cell's trace after this many instructions (0 = unlimited)")
		verbose    = flag.Bool("v", false, "print per-run progress")
		format     = flag.String("format", "text", "output format: text | csv | markdown")
		jsonOut    = flag.Bool("json", false, "emit one ebcp.report/v1 JSON document for all experiments instead of rendered tables")
		outFile    = flag.String("o", "", "write reports to a file instead of stdout")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = all CPU cores)")
		timeout    = flag.Duration("timeout", 0, "stop scheduling new simulations after this long and render partial reports (0 = no limit)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	// Which flags did the user set explicitly? An untouched -exp or
	// -scale keeps its default and yields precedence (to -spec and to the
	// spec's own windows, respectively).
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	// NaN slips through range checks (every comparison with it is false),
	// so non-finite values need their own rejection.
	if math.IsNaN(*scale) || *scale <= 0 || *scale > 1 {
		fmt.Fprintf(os.Stderr, "ebcpexp: -scale must be in (0, 1] (got %g)\n", *scale)
		os.Exit(1)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "ebcpexp: -workers must be non-negative (got %d)\n", *workers)
		os.Exit(1)
	}
	limit, err := instCount("-max-insts", *maxInsts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebcpexp: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut && *format != "text" {
		fmt.Fprintf(os.Stderr, "ebcpexp: -json and -format %s are mutually exclusive\n", *format)
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := exp.Options{
		Warm:     uint64(150e6 * *scale),
		Measure:  uint64(100e6 * *scale),
		MaxInsts: limit,
		Workers:  *workers,
	}
	// Every distinct failure reason reaches stderr once, -v or not: the
	// reports' n/a footnote sends the reader there for it.
	var fails failureReasons
	opts.Progress = fails.note
	if *verbose {
		progress := exp.ProgressWriter(os.Stderr)
		opts.Progress = func(u exp.RunUpdate) {
			fails.note(u)
			progress(u)
		}
	}

	var todo []exp.Experiment
	switch {
	case *specPath != "":
		if setFlags["exp"] {
			fmt.Fprintln(os.Stderr, "ebcpexp: -spec and -exp are mutually exclusive")
			os.Exit(1)
		}
		e, sp, err := loadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ebcpexp: %v\n", err)
			os.Exit(1)
		}
		// The spec's own windows apply only when the runner didn't pick
		// windows itself; an explicit -scale always wins.
		if !setFlags["scale"] {
			if sp.WarmInsts > 0 {
				opts.Warm = sp.WarmInsts
			}
			if sp.MeasureInsts > 0 {
				opts.Measure = sp.MeasureInsts
			}
		}
		todo = []exp.Experiment{e}
	case *which == "all":
		todo = exp.All()
	default:
		seen := map[string]bool{}
		for _, seg := range strings.Split(*which, ",") {
			id := strings.TrimSpace(seg)
			if id == "" || seen[id] {
				continue // tolerate stray commas and repeats: -exp "table1,,table1"
			}
			seen[id] = true
			e, err := exp.ByID(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ebcpexp: -exp segment %q: %v\n", seg, err)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
		if len(todo) == 0 {
			fmt.Fprintf(os.Stderr, "ebcpexp: -exp %q names no experiments\n", *which)
			os.Exit(1)
		}
	}

	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	session := exp.NewSessionContext(ctx, opts)
	naCells := 0
	doc := metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpexp"}
	for _, e := range todo {
		start := time.Now()
		rep := e.Run(session)
		naCells += rep.NACells()
		if *jsonOut {
			doc.Grids = append(doc.Grids, rep.GridV1())
			continue
		}
		if err := rep.RenderFormat(out, *format); err != nil {
			fmt.Fprintf(os.Stderr, "ebcpexp: %v\n", err)
			os.Exit(1)
		}
		if *format == "text" || *format == "" {
			fmt.Fprintf(out, "  [%s in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
		}
	}
	if *jsonOut {
		if err := metrics.WriteJSON(out, doc); err != nil {
			fmt.Fprintf(os.Stderr, "ebcpexp: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "total simulations executed: %d (store hits: %d)\n",
		session.Runs(), session.SharedHits())
	// Failed or cancelled cells render as "n/a", never as plausible
	// numbers; account for them on stderr and refuse a clean exit.
	fails.write(os.Stderr, session.FirstError())
	if n := session.Failures(); n > 0 || naCells > 0 {
		fmt.Fprintf(os.Stderr, "ebcpexp: %d simulation(s) failed or were cancelled; %d report cell(s) rendered as n/a\n",
			n, naCells)
	}
	if err := session.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "ebcpexp: %v — reports above are partial (unsimulated cells render as n/a)\n", err)
		stopProfiles()
		os.Exit(1)
	}
	if session.Failures() > 0 || naCells > 0 {
		stopProfiles()
		os.Exit(1)
	}
}

// failureReasons tallies the failed simulations by error message.
type failureReasons struct {
	mu    sync.Mutex
	count map[string]int
}

// note is an exp.Options.Progress callback.
func (f *failureReasons) note(u exp.RunUpdate) {
	if u.Err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.count == nil {
		f.count = map[string]int{}
	}
	f.count[u.Err.Error()]++
}

// write prints each distinct reason once with its simulation count,
// sorted so the output does not depend on completion order. When no
// simulation failed, it prints first instead (the session's first cell
// error, if any): a cell cancelled before it started never simulates,
// so it reaches no Progress callback.
func (f *failureReasons) write(w io.Writer, first error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.count) == 0 && first != nil {
		fmt.Fprintf(w, "ebcpexp: %v\n", first)
	}
	msgs := make([]string, 0, len(f.count))
	for msg := range f.count {
		msgs = append(msgs, msg)
	}
	sort.Strings(msgs)
	for _, msg := range msgs {
		fmt.Fprintf(w, "ebcpexp: %d simulation(s) failed: %s\n", f.count[msg], msg)
	}
}

// instCount converts an instruction-count flag to uint64. A plain
// `v < 0` check is not enough for float flags: NaN compares false
// against everything, and converting ±Inf or anything at or above 2^64
// to uint64 is implementation-defined (Go spec, "Conversions"), so all
// of those are rejected before the conversion happens.
func instCount(name string, v float64) (uint64, error) {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return 0, ebcperr.Invalidf("%s must be finite (got %g)", name, v)
	case v < 0:
		return 0, ebcperr.Invalidf("%s must be non-negative (got %g)", name, v)
	case v >= 1<<64:
		return 0, ebcperr.Invalidf("%s must be below 2^64 (got %g)", name, v)
	}
	return uint64(v), nil
}

// loadSpec reads and compiles one user-authored spec file. Its cells
// share the session's store with every other spec's: the store keys a
// cell by what it simulates, not by the spec that names it.
func loadSpec(path string) (exp.Experiment, spec.SpecV1, error) {
	f, err := os.Open(path)
	if err != nil {
		return exp.Experiment{}, spec.SpecV1{}, err
	}
	defer f.Close()
	sp, err := spec.Decode(f)
	if err != nil {
		return exp.Experiment{}, spec.SpecV1{}, fmt.Errorf("-spec %s: %w", path, err)
	}
	e, err := exp.FromSpec(sp)
	if err != nil {
		return exp.Experiment{}, spec.SpecV1{}, fmt.Errorf("-spec %s: %w", path, err)
	}
	return e, sp, nil
}

// startProfiles begins CPU profiling and arranges a heap snapshot for the
// returned stop function. The stop function is idempotent so the partial-
// report exit path can flush explicitly before os.Exit.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return func() {}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return func() {}, err
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot shows live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}, nil
}
