package sim

import (
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// ebcpFor builds a tuned EBCP with a smaller table for fast tests.
func ebcpFor(degree int) *core.EBCP {
	cfg := core.DefaultConfig()
	cfg.TableEntries = 1 << 16
	cfg.Degree = degree
	if degree > cfg.TableMaxAddrs {
		cfg.TableMaxAddrs = degree
	}
	return must(core.New(cfg))
}

func TestEBCPOnEpochChain(t *testing.T) {
	// The EBCP-ideal microbenchmark: recurring dependent groups. After a
	// training lap, EBCP should avert most epochs.
	mk := func() *trace.Slice { return trace.NewSlice(epochChain(7, 24000, 3, 5, 80)) }
	cfg := testConfig(1 << 40)
	cfg.WarmInsts = 12e6 // two laps of training
	base := must(Run(mk(), prefetch.None{}, cfg))
	res := must(Run(mk(), ebcpFor(8), cfg))

	if base.Core.Epochs == 0 {
		t.Fatal("baseline produced no epochs")
	}
	imp := res.Improvement(base)
	if imp < 0.25 {
		t.Errorf("EBCP improvement on ideal chain = %.2f, want substantial", imp)
	}
	if cov := res.Coverage(); cov < 0.5 {
		t.Errorf("coverage = %.2f, want > 0.5 on a perfectly recurring chain", cov)
	}
	// Steady state is a partially-covered equilibrium: once epochs
	// compress to on-chip speed, the X=2 lookahead races the table-read +
	// transfer pipeline, so some hits are partial and their epochs remain.
	if red := res.EPIReduction(base); red < 0.18 {
		t.Errorf("EPI reduction = %.2f", red)
	}
}

func TestEBCPBeatsMinusOnEpochChain(t *testing.T) {
	mk := func() *trace.Slice { return trace.NewSlice(epochChain(7, 24000, 3, 5, 80)) }
	cfg := testConfig(1 << 40)
	cfg.WarmInsts = 12e6
	base := must(Run(mk(), prefetch.None{}, cfg))

	plus := must(Run(mk(), ebcpFor(8), cfg))

	mcfg := core.DefaultConfig()
	mcfg.TableEntries = 1 << 16
	mcfg.Minus = true
	minus := must(Run(mk(), must(core.New(mcfg)), cfg))

	if plus.Improvement(base) <= minus.Improvement(base) {
		t.Errorf("EBCP (%.3f) must beat EBCP-minus (%.3f): storing the untimely next epoch wastes entry slots",
			plus.Improvement(base), minus.Improvement(base))
	}
}

func TestStreamOnStridedTrace(t *testing.T) {
	mk := func() *trace.Slice { return trace.NewSlice(strided(1<<30, 2, 20000, 300)) }
	cfg := testConfig(1 << 40)
	base := must(Run(mk(), prefetch.None{}, cfg))
	res := must(Run(mk(), must(prefetch.NewStream(32, 6)), cfg))
	if cov := res.Coverage(); cov < 0.8 {
		t.Errorf("stream coverage on a pure stride = %.2f, want near-complete", cov)
	}
	if imp := res.Improvement(base); imp < 0.5 {
		t.Errorf("stream improvement on a pure stride = %.2f", imp)
	}
}

func TestPrefetchersHarmlessOnRandom(t *testing.T) {
	// Prefetches never delay demand accesses (strict priority), so even a
	// hopeless prefetcher must not slow the machine measurably.
	mk := func() *trace.Slice { return trace.NewSlice(randomLoads(5, 20000, 300)) }
	cfg := testConfig(1 << 40)
	base := must(Run(mk(), prefetch.None{}, cfg))
	for _, pf := range []prefetch.Prefetcher{
		ebcpFor(8), must(prefetch.NewStream(32, 6)), must(prefetch.GHBSmall(6)), prefetch.NewSMS(),
	} {
		res := must(Run(mk(), pf, cfg))
		if slow := res.CPI()/base.CPI() - 1; slow > 0.02 {
			t.Errorf("%s slows a random workload by %.1f%%", pf.Name(), 100*slow)
		}
	}
}

func TestPointerChaseChainFullyCovered(t *testing.T) {
	// A fixed ring of dependent loads: after one lap of training, the
	// lookup chain should sustain itself via prefetch-buffer hits.
	mk := func() *trace.Slice { return trace.NewSlice(pointerChase(3, 50000, 5, 120)) }
	cfg := testConfig(1 << 40)
	cfg.WarmInsts = 12e6 // two laps of training
	base := must(Run(mk(), prefetch.None{}, cfg))
	res := must(Run(mk(), ebcpFor(8), cfg))
	if cov := res.Coverage(); cov < 0.5 {
		t.Errorf("chase coverage = %.2f", cov)
	}
	if imp := res.Improvement(base); imp < 0.3 {
		t.Errorf("chase improvement = %.2f", imp)
	}
}

func TestAccountingInvariants(t *testing.T) {
	// On a real workload, the sim's books must balance.
	p := workload.Database()
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = p.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 2e6, 4e6
	res := must(Run(must(workload.New(p)), ebcpFor(8), cfg))

	if res.Core.Cycles != res.Core.OnChipCycles+res.Core.StallCycles {
		t.Errorf("cycles %d != onchip %d + stall %d",
			res.Core.Cycles, res.Core.OnChipCycles, res.Core.StallCycles)
	}
	var closes uint64
	for _, c := range res.Core.Closes {
		closes += c
	}
	if closes != res.Core.Epochs {
		t.Errorf("closes %d != epochs %d", closes, res.Core.Epochs)
	}
	hits := res.PB.Hits + res.PB.PartialHits
	if hits != res.PBHitsIFetch+res.PBHitsLoad {
		t.Errorf("PB hits %d != per-kind sum %d", hits, res.PBHitsIFetch+res.PBHitsLoad)
	}
	if res.PF.Issued != res.Mem.PerClass[2].Reads {
		t.Errorf("issued prefetches %d != prefetch-class reads %d",
			res.PF.Issued, res.Mem.PerClass[2].Reads)
	}
	if res.Coverage() < 0 || res.Coverage() > 1 {
		t.Errorf("coverage out of range: %v", res.Coverage())
	}
	if res.Accuracy() < 0 || res.Accuracy() > 1 {
		t.Errorf("accuracy out of range: %v", res.Accuracy())
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := workload.SPECjbb2005()
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = p.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6
	r1 := must(Run(must(workload.New(p)), ebcpFor(8), cfg))
	r2 := must(Run(must(workload.New(p)), ebcpFor(8), cfg))
	if r1.Core.Cycles != r2.Core.Cycles || r1.L2MissesLoad != r2.L2MissesLoad {
		t.Errorf("runs not deterministic: %d/%d vs %d/%d",
			r1.Core.Cycles, r1.L2MissesLoad, r2.Core.Cycles, r2.L2MissesLoad)
	}
}

func TestAllBenchmarksImproveWithEBCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	for _, p := range workload.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = p.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = 20e6, 15e6
			base := must(Run(must(workload.New(p)), prefetch.None{}, cfg))
			res := must(Run(must(workload.New(p)), must(core.New(core.DefaultConfig())), cfg))
			imp := res.Improvement(base)
			if imp < 0.03 {
				t.Errorf("EBCP improvement on %s = %.1f%%, want clearly positive", p.Name, 100*imp)
			}
			if res.EPIReduction(base) <= 0 {
				t.Errorf("EPI must fall on %s", p.Name)
			}
		})
	}
}

func TestBandwidthSensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration test")
	}
	// At 3.2GB/s a degree-32 prefetcher saturates the interconnect: its
	// improvement must clearly trail the same configuration at 9.6GB/s
	// (Figure 8's bandwidth sensitivity).
	p := workload.Database()
	baseCfg := DefaultConfig()
	baseCfg.Core.OnChipCPI = p.OnChipCPI
	baseCfg.WarmInsts, baseCfg.MeasureInsts = 30e6, 20e6
	base := must(Run(must(workload.New(p)), prefetch.None{}, baseCfg))

	run := func(gbps float64) Result {
		cfg := baseCfg
		cfg.PBEntries = 1024
		cfg.Mem.ReadGBps, cfg.Mem.WriteGBps = gbps, gbps/2
		ecfg := core.DefaultConfig()
		ecfg.TableEntries = 1 << 20
		ecfg.TableMaxAddrs = 32
		ecfg.Degree = 32
		return must(Run(must(workload.New(p)), must(core.New(ecfg)), cfg))
	}
	low, high := run(3.2), run(9.6)
	if low.Improvement(base) >= high.Improvement(base) {
		t.Errorf("vs the default-machine baseline, degree-32 at 3.2GB/s (%.3f) must trail 9.6GB/s (%.3f)",
			low.Improvement(base), high.Improvement(base))
	}
	// Bandwidth pressure must be visible in prefetch timeliness: at
	// 3.2GB/s a larger share of prefetch-buffer hits are on still-in-flight
	// lines.
	partialShare := func(r Result) float64 {
		return float64(r.PB.PartialHits) / float64(r.PB.PartialHits+r.PB.Hits+1)
	}
	if partialShare(low) <= partialShare(high) {
		t.Errorf("3.2GB/s partial-hit share (%.3f) should exceed 9.6GB/s (%.3f)",
			partialShare(low), partialShare(high))
	}
}
