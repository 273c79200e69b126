// Command ebcpsim runs one simulation: a benchmark, a prefetcher and a
// system configuration, printing the measured statistics (and the
// improvement over a no-prefetching baseline unless -nobase is set).
//
// -prefetcher and -params are an experiment spec cell's prefetcher.name
// and prefetcher.params (ebcp.spec/v1): the contender is built through
// the same registry, with the same strict parameter decoding, so a cell
// of any committed spec under internal/exp/specs can be rerun alone.
//
// Examples:
//
//	ebcpsim -workload SPECjbb2005 -prefetcher ebcp -warm 20e6 -measure 20e6
//	ebcpsim -workload Database -prefetcher ghb-large -params '{"degree":6}'
//	ebcpsim -workload TPC-W -prefetcher ebcp -params '{"degree":16,"table_max_addrs":16}' -read-gbps 3.2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ebcp"
	"ebcp/internal/ebcperr"
	"ebcp/internal/registry"
)

// die prints a one-line diagnostic and exits non-zero. Every failure —
// bad flags, invalid configurations, short traces — leaves through here
// with exit code 1; only flag-package parse errors keep their
// conventional exit code 2.
func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ebcpsim: "+format+"\n", args...)
	os.Exit(1)
}

// countable reports whether a float flag value survives conversion to a
// uint64 instruction count. A plain `v < 0` check is not enough: NaN
// compares false against everything, and converting ±Inf or anything at
// or above 2^64 to uint64 is implementation-defined (Go spec,
// "Conversions").
func countable(v float64) bool {
	return !math.IsNaN(v) && v < 1<<64
}

// validateFlags rejects the instruction-window flags whose float values
// no constructor ever sees: converting them to uint64 is where they
// would go wrong. Every other value is checked, with the same
// ErrInvalidConfig diagnostic, by the constructor it configures.
func validateFlags(warm, measure, maxInsts float64) error {
	switch {
	case warm < 0 || !countable(warm):
		return ebcperr.Invalidf("-warm must be non-negative and below 2^64 (got %g)", warm)
	case measure <= 0 || !countable(measure):
		return ebcperr.Invalidf("-measure must be positive and below 2^64 (got %g)", measure)
	case maxInsts < 0 || !countable(maxInsts):
		return ebcperr.Invalidf("-max-insts must be non-negative and below 2^64 (got %g)", maxInsts)
	}
	return nil
}

func main() {
	var benchNames []string
	for _, b := range ebcp.Benchmarks() {
		benchNames = append(benchNames, b.Name)
	}
	var (
		workloadName = flag.String("workload", "Database", "benchmark: "+strings.Join(benchNames, " | "))
		pfName       = flag.String("prefetcher", "ebcp", "prefetcher, a spec cell's prefetcher.name: "+strings.Join(registry.PrefetcherNames(), " | "))
		pfParams     = flag.String("params", "", "the prefetcher's JSON parameter block, a spec cell's prefetcher.params (empty = every default)")
		filterWrap   = flag.Bool("filter", false, "wrap the prefetcher in the adaptive usefulness filter (default shape, a spec's \"filter\": {})")
		pbEntries    = flag.Int("pb", 64, "prefetch buffer entries")
		warm         = flag.Float64("warm", 150e6, "warmup instructions")
		measure      = flag.Float64("measure", 100e6, "measured instructions")
		maxInsts     = flag.Float64("max-insts", 0, "truncate the generated trace after this many instructions (0 = unlimited)")
		readGBps     = flag.Float64("read-gbps", 9.6, "memory read bandwidth")
		writeGBps    = flag.Float64("write-gbps", 4.8, "memory write bandwidth")
		noBase       = flag.Bool("nobase", false, "skip the baseline run")
		jsonOut      = flag.Bool("json", false, "emit an ebcp.report/v1 JSON document on stdout instead of text")
		timeout      = flag.Duration("timeout", 0, "hard wall-clock limit; exceeding it aborts the process (0 = no limit)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "ebcpsim: exceeded -timeout %v, aborting\n", *timeout)
			os.Exit(1)
		})
	}

	if err := validateFlags(*warm, *measure, *maxInsts); err != nil {
		die("%v", err)
	}

	bench, err := ebcp.BenchmarkByName(*workloadName)
	if err != nil {
		die("%v", err)
	}
	cfg := ebcp.DefaultSystem(bench)
	cfg.WarmInsts = uint64(*warm)
	cfg.MeasureInsts = uint64(*measure)
	cfg.PBEntries = *pbEntries
	cfg.Mem.ReadGBps = *readGBps
	cfg.Mem.WriteGBps = *writeGBps

	pf, err := ebcp.NewPrefetcher(*pfName, json.RawMessage(*pfParams), 0)
	if err != nil {
		die("%v", err)
	}
	if *filterWrap {
		if pf, err = registry.WrapFilter(pf, json.RawMessage(`{}`)); err != nil {
			die("-filter: %v", err)
		}
	}
	// The baseline is independent of the measured run; overlap the two
	// simulations. Output stays in the same (deterministic) order.
	type runOut struct {
		res ebcp.Result
		err error
	}
	wantBase := !*noBase && pf.Name() != "none"
	baseCh := make(chan runOut, 1)
	newSource := func() (ebcp.TraceSource, error) {
		src, err := ebcp.NewTrace(bench)
		if err == nil && *maxInsts > 0 {
			src = ebcp.LimitTrace(src, uint64(*maxInsts))
		}
		return src, err
	}
	if wantBase {
		go func() {
			src, err := newSource()
			if err != nil {
				baseCh <- runOut{err: err}
				return
			}
			r, err := ebcp.Run(src, ebcp.Baseline(), cfg)
			baseCh <- runOut{res: r, err: err}
		}()
	}

	src, err := newSource()
	if err != nil {
		die("%v", err)
	}
	res, runErr := ebcp.Run(src, pf, cfg)
	if runErr != nil && !errors.Is(runErr, ebcp.ErrShortTrace) {
		die("%v", runErr)
	}
	rep := ebcp.ReportV1{Schema: ebcp.ReportSchemaV1, Tool: "ebcpsim"}
	if *jsonOut {
		rep.Runs = append(rep.Runs, ebcp.RunV1{
			Benchmark: bench.Name,
			Role:      "measured",
			Config:    cfg.MetricsConfig(),
			Raw:       res,
			Derived:   res.Derive(),
		})
	} else {
		printResult(bench.Name, res)
		if e, ok := pf.(*ebcp.EBCP); ok {
			printEBCP(e)
		}
	}

	if wantBase {
		base := <-baseCh
		if base.err != nil && !errors.Is(base.err, ebcp.ErrShortTrace) {
			die("baseline: %v", base.err)
		}
		if *jsonOut {
			rep.Runs = append(rep.Runs, ebcp.RunV1{
				Benchmark: bench.Name,
				Role:      "baseline",
				Config:    cfg.MetricsConfig(),
				Raw:       base.res,
				Derived:   base.res.Derive(),
			})
			rep.Comparison = &ebcp.ComparisonV1{
				ImprovementPct:  100 * res.Improvement(base.res),
				EPIReductionPct: 100 * res.EPIReduction(base.res),
			}
		} else {
			fmt.Printf("\nbaseline CPI %.3f  EPKI %.3f\n", base.res.CPI(), base.res.EPKI())
			fmt.Printf("overall performance improvement: %+.1f%%\n", 100*res.Improvement(base.res))
			fmt.Printf("EPI reduction:                   %+.1f%%\n", 100*res.EPIReduction(base.res))
		}
		if runErr == nil {
			runErr = base.err
		}
	}
	if *jsonOut {
		if err := ebcp.WriteJSON(os.Stdout, rep); err != nil {
			die("%v", err)
		}
	}

	// A short trace still prints its (warmup-contaminated) statistics
	// above, but the run must not look clean: warn and exit non-zero.
	if runErr != nil {
		stopProfiles()
		die("warning: %v", runErr)
	}
}

// startProfiles begins CPU profiling and arranges a heap snapshot for the
// returned stop function (call it once, on the normal exit path; error
// exits skip the flush, which only loses profile data).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
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
	}
	return stop, nil
}

func printResult(bench string, r ebcp.Result) {
	fmt.Printf("%s / %s\n", bench, r.Prefetcher)
	fmt.Printf("  instructions      %d\n", r.Core.Instructions)
	fmt.Printf("  cycles            %d\n", r.Core.Cycles)
	fmt.Printf("  CPI               %.3f\n", r.CPI())
	fmt.Printf("  epochs/1000 insts %.3f\n", r.EPKI())
	fmt.Printf("  L2 inst MPKI      %.3f\n", r.IFetchMPKI())
	fmt.Printf("  L2 load MPKI      %.3f\n", r.LoadMPKI())
	fmt.Printf("  overlap           %.3f\n", r.Overlap())
	fmt.Printf("  on-chip cycles    %d  stall cycles %d\n", r.Core.OnChipCycles, r.Core.StallCycles)
	fmt.Printf("  epoch closes      window %d dep %d ser %d ifetch %d branch %d mshr %d drain %d\n",
		r.Core.ClosesByReason[0], r.Core.ClosesByReason[1], r.Core.ClosesByReason[2], r.Core.ClosesByReason[3], r.Core.ClosesByReason[4], r.Core.ClosesByReason[5], r.Core.ClosesByReason[6])
	fmt.Printf("  stall by reason   window %d dep %d ser %d ifetch %d branch %d mshr %d drain %d\n",
		r.Core.StallByReason[0], r.Core.StallByReason[1], r.Core.StallByReason[2], r.Core.StallByReason[3], r.Core.StallByReason[4], r.Core.StallByReason[5], r.Core.StallByReason[6])
	if r.Prefetcher != "none" {
		fmt.Printf("  coverage          %.3f\n", r.Coverage())
		fmt.Printf("  accuracy          %.3f\n", r.Accuracy())
		fmt.Printf("  prefetches issued %d (dropped %d, redundant %d)\n",
			r.PF.Issued, r.PF.Dropped, r.PF.Redundant)
		fmt.Printf("  PB hits           %d full, %d partial\n", r.PB.Hits, r.PB.PartialHits)
		fmt.Printf("  table reads       %d, writes %d\n", r.PF.TableReads, r.PF.TableWrites)
	}
	fmt.Printf("  mem reads         demand %d, table %d, prefetch %d\n",
		r.Mem.Demand.Reads, r.Mem.TableRead.Reads, r.Mem.Prefetch.Reads)
	fmt.Printf("  mem drops         table-read %d prefetch %d table-write %d\n",
		r.Mem.TableRead.ReadDrops, r.Mem.Prefetch.ReadDrops, r.Mem.TableWrite.WriteDrops)
}

func printEBCP(e *ebcp.EBCP) {
	st := e.Stats()
	ts := e.Table().Stats()
	fmt.Printf("  EBCP boundaries   %d (real %d), lookups %d, matches %d (%.2f)\n",
		st.Boundaries, st.RealBoundaries, st.Lookups, st.Matches,
		float64(st.Matches)/float64(max(st.Lookups, 1)))
	fmt.Printf("  EBCP trainings    %d (lost %d), LRU touches %d\n", st.Trainings, st.LostUpdates, st.LRUTouches)
	fmt.Printf("  table             allocs %d conflicts %d updates %d occupancy %d\n",
		ts.Allocations, ts.ConflictEvictions, ts.Updates, e.Table().Occupancy())
}
