package sim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// cmpSources builds per-thread traces: the same benchmark with different
// seeds (independent threads of one server workload).
func cmpSources(p workload.Params, n int) []trace.Source {
	out := make([]trace.Source, n)
	for i := range out {
		q := p
		q.Seed += int64(i) * 7919
		out[i] = must(workload.New(q))
	}
	return out
}

func cmpConfig(p workload.Params) Config {
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = p.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 8e6, 8e6
	return cfg
}

func TestCMPBaselineRuns(t *testing.T) {
	p := workload.SPECjbb2005()
	res := must(RunCMP(cmpSources(p, 2), prefetch.None{}, cmpConfig(p)))
	if len(res.PerCore) != 2 {
		t.Fatalf("per-core results = %d", len(res.PerCore))
	}
	for i, c := range res.PerCore {
		if c.Core.Instructions < 8e6 {
			t.Errorf("core %d measured only %d instructions", i, c.Core.Instructions)
		}
		if c.Core.Epochs == 0 {
			t.Errorf("core %d saw no epochs", i)
		}
	}
	if res.AggregateIPC() <= 0 {
		t.Error("aggregate IPC must be positive")
	}
}

func TestCMPSingleCoreMatchesRunner(t *testing.T) {
	// RunCMP with one source must agree with the single-core Run.
	p := workload.Database()
	cfg := cmpConfig(p)
	single := must(Run(must(workload.New(p)), prefetch.None{}, cfg))
	cmp := must(RunCMP([]trace.Source{must(workload.New(p))}, prefetch.None{}, cfg))
	if cmp.PerCore[0].Core.Cycles != single.Core.Cycles {
		t.Errorf("single-core CMP cycles %d != Run cycles %d",
			cmp.PerCore[0].Core.Cycles, single.Core.Cycles)
	}
	if cmp.PerCore[0].L2MissLoad != single.L2MissLoad {
		t.Errorf("miss counts differ: %d vs %d", cmp.PerCore[0].L2MissLoad, single.L2MissLoad)
	}
}

func TestCMPSharedL2Contention(t *testing.T) {
	// Four threads sharing the 2MB L2 must miss more (per thread) than one
	// thread owning it.
	p := workload.SPECjbb2005()
	cfg := cmpConfig(p)
	one := must(RunCMP(cmpSources(p, 1), prefetch.None{}, cfg))
	four := must(RunCMP(cmpSources(p, 4), prefetch.None{}, cfg))
	mpki := func(r Result) float64 { return r.LoadMPKI() }
	if mpki(four.PerCore[0]) <= mpki(one.PerCore[0]) {
		t.Errorf("shared-L2 contention missing: 4-core MPKI %.2f <= 1-core %.2f",
			mpki(four.PerCore[0]), mpki(one.PerCore[0]))
	}
}

// ebcpCMP builds a shared-table EBCP tracking n threads.
func ebcpCMP(n int) *core.EBCP {
	cfg := core.DefaultConfig()
	cfg.Cores = n
	return must(core.New(cfg))
}

func TestCMPEBCPImprovesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	p := workload.SPECjbb2005()
	cfg := cmpConfig(p)
	cfg.WarmInsts, cfg.MeasureInsts = 20e6, 10e6
	base := must(RunCMP(cmpSources(p, 2), prefetch.None{}, cfg))
	res := must(RunCMP(cmpSources(p, 2), ebcpCMP(2), cfg))
	if sp := res.Speedup(base); sp < 1.03 {
		t.Errorf("2-core EBCP speedup = %.3f, want clearly positive", sp)
	}
	if cov := pooled(res).Coverage(); cov <= 0.1 {
		t.Errorf("coverage = %.2f", cov)
	}
}

// pooled sums the lanes' kind-split off-chip misses and buffer hits into
// one record, whose Coverage is the coverage across all threads.
func pooled(r CMPResult) (s Result) {
	for _, c := range r.PerCore {
		s.L2MissIFetch += c.L2MissIFetch
		s.L2MissLoad += c.L2MissLoad
		s.PBHitIFetch += c.PBHitIFetch
		s.PBHitLoad += c.PBHitLoad
	}
	return s
}

func TestCMPInterleavingHurtsMemorySidePrefetcher(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	// Section 3.3.1: EBCP's per-thread tracking at the crossbar is immune
	// to cross-thread interleaving; Solihin's memory-side engine trains on
	// the interleaved miss stream and degrades as cores are added. Compare
	// each prefetcher's speedup at 1 core vs 4 cores: Solihin must lose
	// more of its benefit than EBCP does.
	p := workload.SPECjbb2005()
	cfg := cmpConfig(p)
	cfg.WarmInsts, cfg.MeasureInsts = 25e6, 10e6

	speedup := func(n int, pf func() prefetch.Prefetcher) float64 {
		base := must(RunCMP(cmpSources(p, n), prefetch.None{}, cfg))
		res := must(RunCMP(cmpSources(p, n), pf(), cfg))
		return res.Speedup(base)
	}

	ebcp1 := speedup(1, func() prefetch.Prefetcher { return ebcpCMP(1) })
	ebcp4 := speedup(4, func() prefetch.Prefetcher { return ebcpCMP(4) })
	sol1 := speedup(1, func() prefetch.Prefetcher { return must(prefetch.NewSolihin(6, 1, 1<<20)) })
	sol4 := speedup(4, func() prefetch.Prefetcher { return must(prefetch.NewSolihin(6, 1, 1<<20)) })

	// Benefit retained when going from 1 to 4 cores.
	ebcpRetain := (ebcp4 - 1) / (ebcp1 - 1)
	solRetain := (sol4 - 1) / (sol1 - 1)
	t.Logf("EBCP speedups 1/4 cores: %.3f/%.3f (retain %.2f); Solihin: %.3f/%.3f (retain %.2f)",
		ebcp1, ebcp4, ebcpRetain, sol1, sol4, solRetain)
	if sol1 <= 1 || ebcp1 <= 1 {
		t.Fatalf("single-core speedups must be positive (ebcp %.3f, solihin %.3f)", ebcp1, sol1)
	}
	if solRetain >= ebcpRetain {
		t.Errorf("Solihin should lose more benefit under interleaving: retained %.2f vs EBCP %.2f",
			solRetain, ebcpRetain)
	}
}

// reportBytes renders the per-core snapshots through the report encoder —
// the exact bytes a JSON report would carry.
func reportBytes(t *testing.T, res CMPResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, pc := range res.PerCore {
		if err := metrics.WriteJSON(&buf, pc); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCMPParallelMatchesSequential pins the property exp.Session and
// ebcpd rely on when they run CMP cells on a worker pool: RunCMP keeps
// all its state in its arguments, so independent runs executing
// concurrently on separate goroutines produce exactly the report bytes
// of the same run executed alone, for every workload and lane count.
func TestCMPParallelMatchesSequential(t *testing.T) {
	lanesSet := []int{1, 2, 4, 8, 16}
	if testing.Short() {
		lanesSet = []int{2, 8}
	}
	const concurrent = 2
	for _, b := range workload.All() {
		for _, lanes := range lanesSet {
			t.Run(fmt.Sprintf("%s/%dlanes", b.Name, lanes), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Core.OnChipCPI = b.OnChipCPI
				cfg.WarmInsts = 400_000 / uint64(lanes)
				cfg.MeasureInsts = 600_000 / uint64(lanes)
				run := func() (CMPResult, error) {
					ecfg := core.DefaultConfig()
					ecfg.TableEntries = 1 << 16
					ecfg.Cores = lanes
					return RunCMP(cmpSources(b, lanes), must(core.New(ecfg)), cfg)
				}
				want := reportBytes(t, must(run()))
				var wg sync.WaitGroup
				results := make([]CMPResult, concurrent)
				errs := make([]error, concurrent)
				for i := range results {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[i], errs[i] = run()
					}()
				}
				wg.Wait()
				for i, res := range results {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if !bytes.Equal(reportBytes(t, res), want) {
						t.Errorf("concurrent run %d diverges from the sequential run", i)
					}
				}
			})
		}
	}
}

func TestCMPResultHelpers(t *testing.T) {
	r := CMPResult{
		Prefetcher: "x",
		PerCore: []Result{
			{Core: cpuStats(1000, 2000, 3), PBHitLoad: 30, L2MissLoad: 70},
			{Core: cpuStats(2000, 4000, 5), PBHitLoad: 20, L2MissLoad: 80},
		},
	}
	if r.Instructions() != 3000 {
		t.Errorf("Instructions = %d", r.Instructions())
	}
	if r.Cycles() != 4000 {
		t.Errorf("Cycles = %d (want the slowest lane)", r.Cycles())
	}
	if ipc := r.AggregateIPC(); ipc != 0.75 {
		t.Errorf("AggregateIPC = %v", ipc)
	}
	if cov := pooled(r).Coverage(); cov != 0.25 {
		t.Errorf("Coverage = %v", cov)
	}
	base := CMPResult{PerCore: []Result{{Core: cpuStats(3000, 6000, 1)}}}
	if sp := r.Speedup(base); sp != 1.5 {
		t.Errorf("Speedup = %v", sp)
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}
