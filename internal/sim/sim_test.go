package sim

import (
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
)

// testConfig is the default system with no warmup and a given measurement
// window.
func testConfig(measure uint64) Config {
	cfg := DefaultConfig()
	cfg.WarmInsts = 0
	cfg.MeasureInsts = measure
	return cfg
}

// isolatedLoads builds a trace of n independent loads to distinct cold
// lines, `gap` instructions apart.
func isolatedLoads(n, gap int) *trace.Slice {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Gap:  uint32(gap),
			Kind: trace.Load,
			Addr: amo.Addr(0x10_0000_0000 + i*64),
			PC:   0x40,
		}
	}
	return trace.NewSlice(recs)
}

func TestBaselineIsolatedMissTiming(t *testing.T) {
	// One cold load miss every 301 instructions: each is its own epoch.
	// Trigger at inst k; the 128-entry window fills ~128 insts later
	// (~128 cycles at CPI 1); the stall is ~500-128 cycles; so each
	// 301-inst block costs ~301 + 372 cycles.
	const n, gap = 1000, 300
	res := must(Run(isolatedLoads(n, gap), prefetch.None{}, testConfig(uint64(n*(gap+1)))))

	if res.L2MissLoad != n {
		t.Fatalf("misses = %d, want %d", res.L2MissLoad, n)
	}
	if got := res.Core.Epochs; got != n {
		t.Fatalf("epochs = %d, want %d", got, n)
	}
	perEpochStall := float64(res.Core.StallCycles) / float64(n)
	if perEpochStall < 340 || perEpochStall > 400 {
		t.Errorf("per-epoch stall = %.0f cycles, want ~372 (500 - ROB drain)", perEpochStall)
	}
	wantCPI := (301.0 + 372.0) / 301.0
	if cpi := res.CPI(); cpi < wantCPI*0.95 || cpi > wantCPI*1.05 {
		t.Errorf("CPI = %.3f, want ~%.3f", cpi, wantCPI)
	}
}

func TestBaselineDependentChainTiming(t *testing.T) {
	// A pointer chase: every load depends on the previous one, 20 insts
	// apart. Each miss stalls the full remaining latency: ~500 cycles per
	// load.
	const n = 1000
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Gap:           19,
			Kind:          trace.Load,
			Addr:          amo.Addr(0x10_0000_0000 + i*64),
			PC:            0x40,
			DependsOnMiss: i > 0,
		}
	}
	res := must(Run(trace.NewSlice(recs), prefetch.None{}, testConfig(n*20)))
	if res.Core.Epochs != n {
		t.Fatalf("epochs = %d, want %d", res.Core.Epochs, n)
	}
	perMiss := float64(res.Core.Cycles) / float64(n)
	// Each iteration: 20 on-chip cycles fully overlapped + ~500 stall...
	// the dependent load issues only after the previous returns, so the
	// period is ~20+500 with the 20 hidden? No: the dep close happens at
	// the *access*, which arrives 20 insts after the previous one — those
	// 20 cycles overlap with the outstanding miss. Period ~520, stall ~500.
	if perMiss < 480 || perMiss > 560 {
		t.Errorf("cycles per chased miss = %.0f, want ~520", perMiss)
	}
}

func TestOverlappedGroupSharesEpoch(t *testing.T) {
	// Groups of 3 independent loads 5 insts apart, groups 400 insts apart:
	// each group is one epoch (3 misses, 1 epoch).
	const groups = 500
	var recs []trace.Record
	addr := amo.Addr(0x10_0000_0000)
	for g := 0; g < groups; g++ {
		for j := 0; j < 3; j++ {
			gap := uint32(4)
			if j == 0 {
				gap = 400
			}
			recs = append(recs, trace.Record{Gap: gap, Kind: trace.Load, Addr: addr, PC: 0x40})
			addr += 64
		}
	}
	res := must(Run(trace.NewSlice(recs), prefetch.None{}, testConfig(1<<40)))
	if res.Core.Epochs != groups {
		t.Errorf("epochs = %d, want %d (3 misses share one epoch)", res.Core.Epochs, groups)
	}
	if res.L2MissLoad != 3*groups {
		t.Errorf("misses = %d, want %d", res.L2MissLoad, 3*groups)
	}
	if res.Core.MissesOverlapped != 2*groups {
		t.Errorf("overlapped = %d, want %d", res.Core.MissesOverlapped, 2*groups)
	}
}

func TestL2HitsNoEpochs(t *testing.T) {
	// Touch 10 lines repeatedly: after the cold pass everything hits.
	var recs []trace.Record
	for lap := 0; lap < 100; lap++ {
		for i := 0; i < 10; i++ {
			recs = append(recs, trace.Record{Gap: 50, Kind: trace.Load, Addr: amo.Addr(0x10_0000_0000 + i*64), PC: 0x40})
		}
	}
	res := must(Run(trace.NewSlice(recs), prefetch.None{}, testConfig(1<<40)))
	if res.L2MissLoad != 10 {
		t.Errorf("misses = %d, want 10 cold misses", res.L2MissLoad)
	}
	if res.Core.Epochs > 10 {
		t.Errorf("epochs = %d, want <= 10", res.Core.Epochs)
	}
}

func TestIFetchMissCountsAndCloses(t *testing.T) {
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{Gap: 200, Kind: trace.IFetch, Addr: amo.Addr(0x4000_0000 + i*64)}
		recs[i].PC = amo.PC(recs[i].Addr)
	}
	res := must(Run(trace.NewSlice(recs), prefetch.None{}, testConfig(1<<40)))
	if res.L2MissIFetch != 100 {
		t.Errorf("ifetch misses = %d", res.L2MissIFetch)
	}
	if res.Core.Epochs != 100 {
		t.Errorf("epochs = %d", res.Core.Epochs)
	}
	if res.Core.ClosesByReason[3] != 100 { // CloseIFetch
		t.Errorf("ifetch closes = %d", res.Core.ClosesByReason[3])
	}
	// Each ifetch epoch stalls the full 500 cycles.
	per := float64(res.Core.StallCycles) / 100
	if per < 490 || per > 540 {
		t.Errorf("stall per ifetch epoch = %.0f, want ~500", per)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{Gap: 99, Kind: trace.Store, Addr: amo.Addr(0x10_0000_0000 + i*64), PC: 0x44}
	}
	res := must(Run(trace.NewSlice(recs), prefetch.None{}, testConfig(1<<40)))
	if res.Core.Epochs != 0 {
		t.Errorf("stores created %d epochs", res.Core.Epochs)
	}
	if res.Core.StallCycles != 0 {
		t.Errorf("stores stalled %d cycles", res.Core.StallCycles)
	}
	if res.L2MissStore != 1000 {
		t.Errorf("store misses = %d", res.L2MissStore)
	}
	// Write-allocate: each store miss fetches its line; writebacks happen
	// later, when the dirty lines are evicted (not here: 1000 lines fit).
	if res.Mem.Demand.Reads != 1000 {
		t.Errorf("store fetches = %d", res.Mem.Demand.Reads)
	}
	if res.CPI() < 0.99 || res.CPI() > 1.01 {
		t.Errorf("CPI = %.3f, want ~1.0", res.CPI())
	}
}

func TestWarmupResetsStats(t *testing.T) {
	// 2000 identical-cost loads; warm on the first half.
	cfg := testConfig(0)
	cfg.WarmInsts = 1000 * 301
	cfg.MeasureInsts = 1000 * 301
	res := must(Run(isolatedLoads(2000, 300), prefetch.None{}, cfg))
	if res.Core.Instructions > 1000*301+400 {
		t.Errorf("measured instructions = %d, want ~%d", res.Core.Instructions, 1000*301)
	}
	if res.L2MissLoad < 990 || res.L2MissLoad > 1010 {
		t.Errorf("measured misses = %d, want ~1000", res.L2MissLoad)
	}
}

func TestMergedMissesDoNotDoubleCount(t *testing.T) {
	// Two accesses to the same cold line 5 insts apart: one miss, merged
	// second access.
	recs := []trace.Record{
		{Gap: 10, Kind: trace.Load, Addr: 0x10_0000_0000, PC: 0x40},
		{Gap: 4, Kind: trace.Load, Addr: 0x10_0000_0010, PC: 0x40}, // same line
	}
	res := must(Run(trace.NewSlice(recs), prefetch.None{}, testConfig(1<<40)))
	if res.L2MissLoad != 1 {
		t.Errorf("misses = %d, want 1 (second access merges)", res.L2MissLoad)
	}
	if res.Core.Epochs != 1 {
		t.Errorf("epochs = %d, want 1", res.Core.Epochs)
	}
	if res.Mem.Demand.Reads != 1 {
		t.Errorf("demand reads = %d, want 1", res.Mem.Demand.Reads)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	base := Result{Core: cpuStats(1000, 3270, 4)}
	pf := Result{Core: cpuStats(1000, 2500, 2)}
	if imp := pf.Improvement(base); imp < 0.30 || imp > 0.31 {
		t.Errorf("Improvement = %v, want ~0.308", imp)
	}
	if red := pf.EPIReduction(base); red != 0.5 {
		t.Errorf("EPIReduction = %v, want 0.5", red)
	}
	r := Result{PBHitLoad: 30, PBHitIFetch: 10, L2MissLoad: 50, L2MissIFetch: 10}
	if cov := r.Coverage(); cov != 0.4 {
		t.Errorf("Coverage = %v, want 0.4", cov)
	}
}

func cpuStats(insts, cycles, epochs uint64) (s metrics.CoreCounters) {
	s.Instructions = insts
	s.Cycles = cycles
	s.Epochs = epochs
	return
}
