package ebcp

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at the paper's full 150M+100M instruction windows and prints
// the same rows/series the paper reports, with the paper's published
// values inline where the paper states them.
//
// Run a single artifact:
//
//	go test -bench BenchmarkTable1 -benchtime 1x
//
// Regenerate everything (several minutes):
//
//	go test -bench . -benchmem -benchtime 1x
//
// Each benchmark executes its experiment once per iteration, so
// -benchtime 1x is the intended setting; key headline numbers are also
// exposed as benchmark metrics (improvement percentages etc.).

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"ebcp/internal/exp"
)

// benchSession memoizes runs across benchmarks in one `go test -bench`
// process (Figure 5 reuses Figure 4's simulations, every figure reuses
// the baselines).
var benchSession = exp.NewSession(exp.Options{})

func runExperiment(b *testing.B, id string, metrics func(*exp.Report, *testing.B)) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep := e.Run(benchSession)
		if i == 0 {
			rep.Render(os.Stdout)
			if metrics != nil {
				metrics(rep, b)
			}
		}
	}
}

func metric(rep *exp.Report, b *testing.B, label, column, name string) {
	if v, ok := rep.Value(label, column); ok {
		b.ReportMetric(v, name)
	}
}

// BenchmarkTable1 regenerates Table 1: the baseline CPI, epochs per 1000
// instructions and L2 miss rates of the four commercial workloads.
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "CPI overall", "Database", "db-CPI")
		metric(rep, b, "Epochs per 1000 insts", "Database", "db-EPKI")
	})
}

// BenchmarkFig4 regenerates Figure 4: overall performance improvement
// versus prefetch degree for the idealized EBCP.
func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "fig4", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "Database", "deg 32", "db-d32-%")
		metric(rep, b, "SPECjbb2005", "deg 32", "jbb-d32-%")
	})
}

// BenchmarkFig5 regenerates Figure 5: EPI reduction, miss rates, coverage
// and accuracy versus prefetch degree (shares Figure 4's runs).
func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

// BenchmarkFig6 regenerates Figure 6: performance versus correlation
// table entries.
func BenchmarkFig6(b *testing.B) {
	runExperiment(b, "fig6", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "Database", "1M", "db-1M-%")
	})
}

// BenchmarkFig7 regenerates Figure 7: performance versus prefetch buffer
// entries; its 64-entry column is the paper's tuned configuration
// (23/13/31/26%).
func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "Database", "64", "db-tuned-%")
		metric(rep, b, "TPC-W", "64", "tpcw-tuned-%")
		metric(rep, b, "SPECjbb2005", "64", "jbb-tuned-%")
		metric(rep, b, "SPECjAppServer2004", "64", "japp-tuned-%")
	})
}

// BenchmarkFig8 regenerates Figure 8: sensitivity to available memory
// bandwidth (60 simulations; the slowest artifact).
func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", nil)
}

// BenchmarkFig9 regenerates Figure 9: the comparison of EBCP with GHB,
// TCP, stream, SMS, Solihin and EBCP-minus.
func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "EBCP", "Database", "ebcp-db-%")
		metric(rep, b, "Solihin 6,1", "Database", "sol61-db-%")
	})
}

// benchmarkSession times the table1 grid on a fresh session (no memo
// carry-over between iterations) at 20%-length windows with the given
// worker count.
func benchmarkSession(b *testing.B, workers int) {
	e, err := exp.ByID("table1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(workers), "workers")
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(exp.Options{Warm: 30e6, Measure: 20e6, Workers: workers})
		rep := e.Run(s)
		if i == 0 {
			if v, ok := rep.Value("CPI overall", "Database"); ok {
				b.ReportMetric(v, "db-CPI")
			}
		}
	}
}

// BenchmarkSessionSerial and BenchmarkSessionParallel compare wall-clock
// time for the same experiment grid with one worker versus one worker
// per CPU core. On a ≥4-core machine the parallel session completes the
// four-benchmark table1 grid ≥2× faster; the reports are byte-identical
// (internal/exp/parallel_test.go locks that invariant).
//
//	go test -bench 'BenchmarkSession(Serial|Parallel)' -benchtime 1x
func BenchmarkSessionSerial(b *testing.B) { benchmarkSession(b, 1) }

// BenchmarkSessionParallel shards the same grid over all CPU cores.
func BenchmarkSessionParallel(b *testing.B) { benchmarkSession(b, runtime.NumCPU()) }

// BenchmarkSimThroughput measures raw simulator speed (simulated
// instructions per wall-clock second) on the Database workload with the
// tuned EBCP — the figure of merit for the condensed-trace design.
func BenchmarkSimThroughput(b *testing.B) {
	bench := Database()
	cfg := DefaultSystem(bench)
	cfg.WarmInsts = 0
	cfg.MeasureInsts = 5_000_000
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res := must(Run(must(NewTrace(bench)), must(NewEBCP(TunedEBCP())), cfg))
		insts += res.Core.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkCMP runs this reproduction's extension experiment: the paper's
// Section 6 future work (EBCP on a chip multiprocessor) and a quantitative
// test of the Section 3.3.1 placement argument — per-thread EBCP tracking
// at the crossbar retains its benefit as cores scale, while the
// memory-side Solihin prefetcher degrades on the interleaved miss stream.
func BenchmarkCMP(b *testing.B) {
	runExperiment(b, "cmp", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "SPECjbb2005: EBCP", "4 cores", "ebcp-4core-%")
		metric(rep, b, "SPECjbb2005: Solihin 6,1", "4 cores", "sol-4core-%")
	})
}

// BenchmarkAblations regenerates the EBCP design-choice ablation table
// (extension): the tuned prefetcher with one Section 3 design choice
// removed at a time.
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablations", func(rep *exp.Report, b *testing.B) {
		metric(rep, b, "tuned EBCP", "Database", "tuned-db-%")
		metric(rep, b, "no PB-hit lookups", "Database", "noPBhit-db-%")
	})
}

// BenchmarkCMPThroughput measures RunCMP's aggregate simulation speed
// across lane counts (fixed total work: the per-lane window shrinks as
// lanes grow). RunCMP interleaves the lanes on the calling goroutine, so
// the Minsts/s curve is the per-record cost of the lowest-clock loop plus
// the extra cache and table pressure of more threads; it does not scale
// with host cores. `lanes` rides along as a metric so
// BENCH_throughput.json is self-describing.
func BenchmarkCMPThroughput(b *testing.B) {
	bench := Database()
	for _, lanes := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			cfg := DefaultSystem(bench)
			cfg.WarmInsts = 0
			cfg.MeasureInsts = 2_000_000 / uint64(lanes)
			ecfg := TunedEBCP()
			ecfg.TableEntries = 1 << 18
			ecfg.Cores = lanes
			b.ReportAllocs()
			b.ResetTimer()
			var insts uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srcs := make([]TraceSource, lanes)
				for j := range srcs {
					w := bench
					w.Seed += int64(j) * 7919
					srcs[j] = must(NewTrace(w))
				}
				pf := must(NewEBCP(ecfg))
				b.StartTimer()
				res := must(RunCMP(srcs, pf, cfg))
				insts += res.Instructions()
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
			b.ReportMetric(float64(lanes), "lanes")
		})
	}
}
