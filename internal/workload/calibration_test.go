package workload_test

import (
	"math"
	"testing"

	"ebcp/internal/prefetch"
	"ebcp/internal/sim"
	"ebcp/internal/workload"
)

// The calibration regression suite: every synthetic workload's baseline
// (no-prefetching) derived metrics must sit inside explicit tolerance
// bands around Table 1 of the paper. The workload parameter sets were
// tuned against exactly these targets, so a drift here means a generator
// or simulator change silently moved the reproduction off the paper.
//
// Windows are 10% of the paper's (15M warm + 10M measured instructions):
// the smallest proportional window where all sixteen metrics settle
// within the bands below. Tolerances are relative, per metric, and
// deliberately tighter than "the test passes today" would need —
// the worst current deviation in each column is noted alongside.

// calibrationWarm/Measure are the windows all bands were measured at.
// They must scale together: EPKI and the miss rates drift if the warmup
// share changes.
const (
	calibrationWarm    = 15_000_000
	calibrationMeasure = 10_000_000
)

// paperBaseline is one workload's Table 1 row.
type paperBaseline struct {
	params workload.Params
	// Table 1: CPI, epochs/1000 insts, L2 instruction and load misses
	// per 1000 insts for the baseline processor without prefetching.
	cpi, epki, impki, lmpki float64
}

func table1() []paperBaseline {
	return []paperBaseline{
		{workload.Database(), 3.27, 4.07, 1.00, 6.23},
		{workload.TPCW(), 2.00, 1.59, 0.71, 1.27},
		{workload.SPECjbb2005(), 2.06, 2.65, 0.12, 4.30},
		{workload.SPECjAppServer2004(), 2.78, 3.25, 1.57, 2.64},
	}
}

// Relative tolerance per metric. Current worst-case deviations across
// the four workloads: CPI 1.9%, EPKI 4.9%, I-MPKI 6.9%, L-MPKI 8.7%.
const (
	tolCPI   = 0.05
	tolEPKI  = 0.08
	tolIMPKI = 0.12
	tolLMPKI = 0.12
)

func TestBaselineCalibration(t *testing.T) {
	for _, c := range table1() {
		t.Run(c.params.Name, func(t *testing.T) {
			t.Parallel()
			cfg := sim.DefaultConfig()
			cfg.Core.OnChipCPI = c.params.OnChipCPI
			cfg.WarmInsts = calibrationWarm
			cfg.MeasureInsts = calibrationMeasure
			gen, err := workload.New(c.params)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(gen, prefetch.None{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := res.Derive()
			checks := []struct {
				metric          string
				paper, measured float64
				tol             float64
			}{
				{"CPI", c.cpi, d.CPI, tolCPI},
				{"epochs/1000 insts", c.epki, d.EPKI, tolEPKI},
				{"L2 inst MPKI", c.impki, d.IFetchMPKI, tolIMPKI},
				{"L2 load MPKI", c.lmpki, d.LoadMPKI, tolLMPKI},
			}
			for _, ck := range checks {
				rel := math.Abs(ck.measured-ck.paper) / ck.paper
				if rel > ck.tol {
					t.Errorf("%-18s paper %6.3f  measured %6.3f  off by %.1f%% (tolerance ±%.0f%%)",
						ck.metric, ck.paper, ck.measured, 100*rel, 100*ck.tol)
				} else {
					t.Logf("%-18s paper %6.3f  measured %6.3f  (within ±%.0f%%)",
						ck.metric, ck.paper, ck.measured, 100*ck.tol)
				}
			}
		})
	}
}
