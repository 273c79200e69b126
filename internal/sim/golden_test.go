package sim

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/prefetch"
	"ebcp/internal/workload"
)

// TestGoldenCycleCounts pins exact results of short deterministic runs.
// Its purpose is regression detection: any change to the workload
// generators, the core timing model, the caches, the interconnect or the
// prefetcher changes these numbers, and that is the point — behavioural
// changes must be deliberate. When an intentional modelling or
// calibration change lands, regenerate the table (the test failure
// message prints the new values) and re-validate EXPERIMENTS.md.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		name                 string
		baseCycles, baseMiss uint64
		ebcpCycles, ebcpHits uint64
	}{
		{"Database", 6932126, 13574, 6927303, 20},
		{"TPC-W", 4945873, 2937, 4945873, 0},
		{"SPECjbb2005", 4696999, 9466, 4691924, 27},
		{"SPECjAppServer2004", 6817863, 6198, 6814708, 16},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			b, err := workload.ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = b.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6

			base := must(Run(must(workload.New(b)), prefetch.None{}, cfg))
			pf := must(Run(must(workload.New(b)), must(core.New(core.DefaultConfig())), cfg))
			hits := pf.PB.Hits + pf.PB.PartialHits

			if base.Core.Cycles != g.baseCycles || base.L2MissLoad != g.baseMiss ||
				pf.Core.Cycles != g.ebcpCycles || hits != g.ebcpHits {
				t.Errorf("golden drift for %s:\n  got  {%q, %d, %d, %d, %d}\n  want {%q, %d, %d, %d, %d}\n"+
					"if this change is intentional, update the golden table and re-validate EXPERIMENTS.md",
					g.name,
					g.name, base.Core.Cycles, base.L2MissLoad, pf.Core.Cycles, hits,
					g.name, g.baseCycles, g.baseMiss, g.ebcpCycles, g.ebcpHits)
			}
		})
	}
}

// TestGoldenComparisonPrefetcher pins a comparison prefetcher (the small
// GHB at degree 6, as in Figure 9) the same way TestGoldenCycleCounts
// pins the baseline and EBCP: exact cycle counts of short deterministic
// runs, so any behavioural drift in the comparison path is caught too.
func TestGoldenComparisonPrefetcher(t *testing.T) {
	golden := []struct {
		name         string
		cycles, hits uint64
	}{
		{"Database", 6756361, 719},
		{"SPECjbb2005", 4506029, 578},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			b, err := workload.ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = b.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6

			res := must(Run(must(workload.New(b)), must(prefetch.GHBSmall(6)), cfg))
			hits := res.PB.Hits + res.PB.PartialHits
			if res.Core.Cycles != g.cycles || hits != g.hits {
				t.Errorf("golden drift for %s / GHB small:\n  got  {%q, %d, %d}\n  want {%q, %d, %d}\n"+
					"if this change is intentional, update the golden table and re-validate EXPERIMENTS.md",
					g.name, g.name, res.Core.Cycles, hits, g.name, g.cycles, g.hits)
			}
		})
	}
}

// TestGoldenFrontierContenders pins the frontier contenders — the
// chaining correlation prefetcher and the Hermes off-chip predictor —
// with the same exact-cycle discipline. For Hermes, the pinned counters
// are cycles and speculative reads (it issues no prefetches: its effect
// is early dispatch, visible as a cycle delta against the baseline).
func TestGoldenFrontierContenders(t *testing.T) {
	golden := []struct {
		name                     string
		chainCycles, chainHits   uint64
		hermesCycles, hermesSpec uint64
	}{
		{"Database", 6926585, 38, 6730650, 3641},
		{"SPECjbb2005", 4702842, 41, 4551191, 1740},
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			b, err := workload.ByName(g.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = b.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6

			chain := must(Run(must(workload.New(b)), must(prefetch.NewChain(prefetch.DefaultChainConfig())), cfg))
			chainHits := chain.PB.Hits + chain.PB.PartialHits
			hermes := must(Run(must(workload.New(b)), must(prefetch.NewHermes(prefetch.DefaultHermesConfig(), 1)), cfg))

			if chain.Core.Cycles != g.chainCycles || chainHits != g.chainHits ||
				hermes.Core.Cycles != g.hermesCycles || hermes.PF.SpecReads != g.hermesSpec {
				t.Errorf("golden drift for %s / frontier:\n  got  {%q, %d, %d, %d, %d}\n  want {%q, %d, %d, %d, %d}\n"+
					"if this change is intentional, update the golden table and re-validate EXPERIMENTS.md",
					g.name,
					g.name, chain.Core.Cycles, chainHits, hermes.Core.Cycles, hermes.PF.SpecReads,
					g.name, g.chainCycles, g.chainHits, g.hermesCycles, g.hermesSpec)
			}
		})
	}
}

// TestGoldenCMP pins CMP runs on Database (EBCP and the no-prefetching
// baseline sharing the L2, as in the cmp experiment) with the windows
// split across the lanes. The two-lane rows pin per-lane cycle counts and
// lane 0's prefetch-buffer hits; the 16-lane row pins a sha256 of every
// lane's snapshot report bytes, so the lowest-clock interleaving at width
// cannot drift unnoticed.
func TestGoldenCMP(t *testing.T) {
	ebcp := func(lanes int) prefetch.Prefetcher { return ebcpCMP(lanes) }
	golden := []struct {
		name       string
		lanes      int
		pf         func(lanes int) prefetch.Prefetcher
		laneCycles []uint64 // nil: not pinned
		hits       uint64
		sha        string // "": not pinned
	}{
		{"baseline", 2, func(int) prefetch.Prefetcher { return prefetch.None{} }, []uint64{3872809, 3728771}, 0, ""},
		{"ebcp", 2, ebcp, []uint64{3875645, 3726766}, 13, ""},
		{"ebcp-16lanes", 16, ebcp, nil, 0, "20edd4f73e0ee0782f061eca8deb790947f5148ca34af67da36c77d01d69831f"},
	}
	b, err := workload.ByName("Database")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		g := g
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Core.OnChipCPI = b.OnChipCPI
			cfg.WarmInsts, cfg.MeasureInsts = 1e6/uint64(g.lanes), 2e6/uint64(g.lanes)
			res := must(RunCMP(cmpSources(b, g.lanes), g.pf(g.lanes), cfg))
			if len(res.PerCore) != g.lanes {
				t.Fatalf("expected %d lanes, got %d", g.lanes, len(res.PerCore))
			}
			if g.laneCycles != nil {
				laneCycles := make([]uint64, g.lanes)
				for i, lane := range res.PerCore {
					laneCycles[i] = lane.Core.Cycles
				}
				hits := res.PerCore[0].PB.Hits + res.PerCore[0].PB.PartialHits
				if !slices.Equal(laneCycles, g.laneCycles) || hits != g.hits {
					t.Errorf("golden drift for CMP/%s:\n  got  %v, hits %d\n  want %v, hits %d\n"+
						"if this change is intentional, update the golden table and re-validate EXPERIMENTS.md",
						g.name, laneCycles, hits, g.laneCycles, g.hits)
				}
			}
			if g.sha != "" {
				if got := fmt.Sprintf("%x", sha256.Sum256(reportBytes(t, res))); got != g.sha {
					t.Errorf("golden drift for CMP/%s: report sha256 %s, want %s\n"+
						"if this change is intentional, update the golden table and re-validate EXPERIMENTS.md",
						g.name, got, g.sha)
				}
			}
		})
	}
}
