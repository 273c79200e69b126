package ebcp

// Host-speed benchmarks of the simulator and the experiment scheduler:
// serial versus parallel sessions over one experiment grid, single-core
// simulation throughput, and CMP throughput across lane counts. The
// paper's tables and figures are regenerated by `ebcpexp -exp <id>`,
// not here.
//
//	go test -run '^$' -bench . -benchtime 1x

import (
	"fmt"
	"runtime"
	"testing"

	"ebcp/internal/exp"
)

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

// BenchmarkCMPThroughput measures RunCMP's aggregate simulation speed
// across lane counts (fixed total work: the per-lane window shrinks as
// lanes grow). Run and RunCMP share one lowest-clock loop, so lanes=1 is
// the single-core path. The loop interleaves the lanes on the calling
// goroutine, a lane keeping its turn until its clock passes the next
// lane's, so the Minsts/s curve is the per-turn scan cost plus the extra
// cache and table pressure of more threads; it does not scale with host
// cores. `lanes` rides along as a metric so each -bench output line is
// self-describing.
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
