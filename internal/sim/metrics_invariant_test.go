package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// The metrics layer promises that every Snapshot of a single-core run
// reconciles: cycles split exactly into on-chip and stall, the L2 miss
// stream resolves exactly into prefetch-buffer hits plus demand misses,
// histogram populations equal their counter totals, and the derived
// fractions stay inside [0,1]. Exercise that contract under randomized
// short configurations rather than a single blessed one — the identities
// must hold for any workload, prefetcher, buffer shape and bandwidth.

// randomConfig draws one short simulation setup from rng.
func randomConfig(rng *rand.Rand) (workload.Params, prefetch.Prefetcher, Config) {
	benches := workload.All()
	p := benches[rng.Intn(len(benches))]

	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = p.OnChipCPI
	cfg.WarmInsts = uint64(rng.Intn(400_000)) // includes tiny and zero warmups
	cfg.MeasureInsts = uint64(200_000 + rng.Intn(600_000))
	cfg.PBEntries = []int{16, 64, 256, 1024}[rng.Intn(4)]
	cfg.Mem.ReadGBps = []float64{3.2, 6.4, 9.6}[rng.Intn(3)]
	cfg.Mem.WriteGBps = cfg.Mem.ReadGBps / 2

	var pf prefetch.Prefetcher
	switch rng.Intn(5) {
	case 0:
		pf = prefetch.None{}
	case 1:
		ecfg := core.DefaultConfig()
		ecfg.TableEntries = 1 << 14
		ecfg.Degree = []int{1, 4, 8, 16}[rng.Intn(4)]
		if ecfg.Degree > ecfg.TableMaxAddrs {
			ecfg.TableMaxAddrs = ecfg.Degree
		}
		pf = must(core.New(ecfg))
	case 2:
		ecfg := core.DefaultConfig()
		ecfg.TableEntries = 1 << 14
		ecfg.Minus = true
		pf = must(core.New(ecfg))
	case 3:
		pf = must(prefetch.NewStream(32, 6))
	case 4:
		pf = prefetch.NewSMS()
	}
	return p, pf, cfg
}

func TestSnapshotInvariantsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0xEBC9))
	const rounds = 8
	for i := 0; i < rounds; i++ {
		p, pf, cfg := randomConfig(rng)
		t.Run("", func(t *testing.T) {
			res := must(Run(must(workload.New(p)), pf, cfg))
			snap := res.Snapshot()
			if err := snap.CheckInvariants(); err != nil {
				t.Errorf("%s/%s warm=%d measure=%d pb=%d: %v",
					p.Name, pf.Name(), cfg.WarmInsts, cfg.MeasureInsts, cfg.PBEntries, err)
			}
			if snap.WarmupIncomplete {
				t.Errorf("%s: full-length run flagged WarmupIncomplete", p.Name)
			}
		})
	}
}

// TestSnapshotInvariantsShortTrace pins the contaminated-result path: a
// trace exhausted during warmup still yields a self-consistent snapshot
// (flagged WarmupIncomplete), so diagnostics built on it can be trusted.
func TestSnapshotInvariantsShortTrace(t *testing.T) {
	p := workload.Database()
	cfg := DefaultConfig()
	cfg.Core.OnChipCPI = p.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 500_000, 500_000
	src := trace.NewLimit(must(workload.New(p)), 50_000)
	res, err := Run(src, prefetch.None{}, cfg)
	if !errors.Is(err, ebcperr.ErrShortTrace) {
		t.Fatalf("err = %v, want ErrShortTrace", err)
	}
	snap := res.Snapshot()
	if !snap.WarmupIncomplete {
		t.Error("short-trace snapshot not flagged WarmupIncomplete")
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Errorf("short-trace snapshot does not reconcile: %v", err)
	}
}

// TestDerivedMetricsAgree pins the two implementations of the paper's
// derived metrics to each other: Result's CPI/EPKI/MPKI/coverage/
// accuracy/timeliness methods (what the text renderers print) and
// metrics.Snapshot.Derive (what the JSON reports carry). They evaluate
// the same formulas in a different operation order, so they may differ
// in the last bit (1000*n/d against 1000*(n/d)), but no further: a
// formula that drifts in one of them fails here.
func TestDerivedMetricsAgree(t *testing.T) {
	const relTol = 1e-14
	for _, p := range workload.All() {
		cfg := DefaultConfig()
		cfg.Core.OnChipCPI = p.OnChipCPI
		cfg.WarmInsts, cfg.MeasureInsts = 5_000_000, 5_000_000
		res := must(Run(must(workload.New(p)), must(core.New(core.DefaultConfig())), cfg))
		snap := res.Snapshot()
		d := snap.Derive()
		for _, m := range []struct {
			name          string
			result, snaps float64
		}{
			{"CPI", res.CPI(), d.CPI},
			{"EPKI", res.EPKI(), d.EPKI},
			{"IFetchMPKI", res.IFetchMPKI(), d.IFetchMPKI},
			{"LoadMPKI", res.LoadMPKI(), d.LoadMPKI},
			{"Coverage", res.Coverage(), d.Coverage},
			{"Accuracy", res.Accuracy(), d.Accuracy},
			{"Timeliness", res.Timeliness(), d.TimelyOnTime},
		} {
			if m.result == 0 && m.snaps == 0 {
				t.Errorf("%s %s: both zero; the window is too short to compare anything", p.Name, m.name)
				continue
			}
			if diff := math.Abs(m.result - m.snaps); diff > relTol*math.Max(math.Abs(m.result), math.Abs(m.snaps)) {
				t.Errorf("%s %s: Result says %v, Snapshot.Derive says %v", p.Name, m.name, m.result, m.snaps)
			}
		}
	}
}
