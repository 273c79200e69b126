package metrics

import (
	"math"
	"strings"
	"testing"
)

// consistentSnapshot builds a snapshot whose counters all reconcile, as
// a Run-produced one would.
func consistentSnapshot() Snapshot {
	s := Snapshot{
		Prefetcher: "test",
		Core: CoreCounters{
			Instructions:     1000,
			Cycles:           3000,
			OnChipCycles:     2500,
			OverlappedCycles: 800,
			StallCycles:      500,
			Epochs:           4,
			MissesOverlapped: 6,
			ClosesByReason:   [NumCloseReasons]uint64{2, 0, 0, 1, 0, 0, 1},
			StallByReason:    [NumCloseReasons]uint64{300, 0, 0, 100, 0, 0, 100},
		},
		L1I: CacheCounters{Accesses: 400, Hits: 380, Misses: 20, Fills: 20, Evictions: 10},
		L1D: CacheCounters{Accesses: 600, Hits: 550, Misses: 50, Fills: 50, Evictions: 30, DirtyEvictions: 5},
		L2:  CacheCounters{Accesses: 70, Hits: 40, Misses: 30, Fills: 30, Evictions: 8, DirtyEvictions: 2},

		L2MissIFetch: 5,
		L2MissLoad:   12,
		L2MissStore:  5,
		PBHitIFetch:  3,
		PBHitLoad:    5,

		PB: PBCounters{Inserts: 20, Hits: 6, PartialHits: 2, Evictions: 4, Invalidations: 1},
		PF: PFCounters{Issued: 20, Dropped: 3, Redundant: 7, TableReads: 9, TableWrites: 2},
		Mem: MemCounters{
			Demand:   MemClassCounters{Reads: 22, Writes: 4},
			Prefetch: MemClassCounters{Reads: 20, ReadDrops: 3},
		},
	}
	for i := uint64(0); i < s.Core.Epochs; i++ {
		s.Hist.EpochLen.Observe(500 + 100*i)
		s.Hist.EpochMisses.Observe(1 + i)
	}
	for i := uint64(0); i < s.PBHitIFetch+s.PBHitLoad; i++ {
		s.Hist.PBUseDist.Observe(200 * i)
	}
	return s
}

func TestDerive(t *testing.T) {
	s := consistentSnapshot()
	d := s.Derive()
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("CPI", d.CPI, 3.0)
	approx("EPKI", d.EPKI, 4.0)
	approx("IFetchMPKI", d.IFetchMPKI, 5.0)
	approx("LoadMPKI", d.LoadMPKI, 12.0)
	approx("Overlap", d.Overlap, 0.32)
	approx("Coverage", d.Coverage, 8.0/25.0)
	approx("Accuracy", d.Accuracy, 8.0/20.0)
	approx("TimelyOnTime", d.TimelyOnTime, 6.0/20.0)
	approx("TimelyLate", d.TimelyLate, 2.0/20.0)
	approx("TimelyEarly", d.TimelyEarly, 4.0/20.0)
	approx("MeanEpochCycles", d.MeanEpochCycles, 650)
	approx("MeanEpochMisses", d.MeanEpochMisses, 2.5)
}

// TestPerKiloInstFormula pins the one per-1000 formula,
// float64(1000*n)/float64(insts), on the measured Database run of
// testdata/report_single.json: 13,568 off-chip load misses over
// 2,000,106 instructions, exactly 6.78364046705524607.... The product is
// exact, so the division's rounding is the only one and the result is
// the correctly rounded ...246; 1000*(n/insts) rounds twice and reads
// ...245. The method and Derive must both give the former, bit for bit.
func TestPerKiloInstFormula(t *testing.T) {
	n, insts := uint64(13568), uint64(2000106)
	want := float64(1000*n) / float64(insts)
	if twice := 1000 * (float64(n) / float64(insts)); twice == want {
		t.Fatalf("the two operation orders agree on %v; the case no longer tells them apart", want)
	}
	s := Snapshot{Core: CoreCounters{Instructions: insts}, L2MissLoad: n}
	if got := s.LoadMPKI(); got != want {
		t.Errorf("LoadMPKI = %v, want %v", got, want)
	}
	if got := s.Derive().LoadMPKI; got != want {
		t.Errorf("Derive().LoadMPKI = %v, want %v", got, want)
	}
}

// TestCoreRates pins the core-counter rates on exact values.
func TestCoreRates(t *testing.T) {
	s := Snapshot{Core: CoreCounters{Instructions: 1000, Cycles: 3270, Epochs: 4, OnChipCycles: 600, OverlappedCycles: 150}}
	if s.CPI() != 3.27 {
		t.Errorf("CPI = %v", s.CPI())
	}
	if s.EPKI() != 4 {
		t.Errorf("EPKI = %v", s.EPKI())
	}
	if s.Overlap() != 0.25 {
		t.Errorf("Overlap = %v", s.Overlap())
	}
	var z Snapshot
	if z.CPI() != 0 || z.EPKI() != 0 || z.Overlap() != 0 {
		t.Error("zero counters should give zero rates")
	}
}

func TestDeriveZeroSnapshot(t *testing.T) {
	// All-zero denominators must yield zeros, never NaN or Inf (the
	// report layer serializes Derived directly, and NaN is not JSON).
	var s Snapshot
	d := s.Derive()
	for _, v := range []float64{d.CPI, d.EPKI, d.IFetchMPKI, d.LoadMPKI, d.Overlap,
		d.MeanEpochCycles, d.MeanEpochMisses, d.Coverage, d.Accuracy,
		d.TimelyOnTime, d.TimelyLate, d.TimelyEarly} {
		if v != 0 {
			t.Errorf("zero snapshot derived a non-zero value: %+v", d)
			break
		}
	}
}

func TestCheckInvariantsAccepts(t *testing.T) {
	s := consistentSnapshot()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}
	var zero Snapshot
	if err := zero.CheckInvariants(); err != nil {
		t.Fatalf("zero snapshot rejected: %v", err)
	}
}

func TestCheckInvariantsRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		want   string
	}{
		{"cache hit/miss mismatch", func(s *Snapshot) { s.L1D.Hits++ }, "hits"},
		{"evictions exceed fills", func(s *Snapshot) { s.L2.Evictions = s.L2.Fills + 1 }, "evictions"},
		{"dirty evictions exceed evictions", func(s *Snapshot) { s.L1D.DirtyEvictions = s.L1D.Evictions + 1 }, "dirty evictions"},
		{"L2 miss resolution mismatch", func(s *Snapshot) { s.L2MissLoad++ }, "L2 misses"},
		{"PB kind split mismatch", func(s *Snapshot) { s.PBHitLoad++; s.Hist.PBUseDist.Observe(1) }, "kind-split"},
		{"inserts diverge from issued", func(s *Snapshot) { s.PB.Inserts++ }, "inserts"},
		{"prefetch reads diverge from issued", func(s *Snapshot) { s.Mem.Prefetch.Reads-- }, "memory reads"},
		{"prefetch drops diverge", func(s *Snapshot) { s.Mem.Prefetch.ReadDrops++ }, "drops"},
		{"cycle accounting broken", func(s *Snapshot) { s.Core.StallCycles-- }, "cycles"},
		{"overlapped exceeds on-chip", func(s *Snapshot) { s.Core.OverlappedCycles = s.Core.OnChipCycles + 1 }, "overlapped"},
		{"stall attribution broken", func(s *Snapshot) {
			s.Core.StallByReason[0]++
			s.Core.StallCycles++
			s.Core.Cycles++
			s.Core.StallByReason[3]--
		}, "stall-by-reason"},
		{"histogram bucket tampered", func(s *Snapshot) { s.Hist.EpochLen.Buckets[5]++ }, "bucket sum"},
		{"epoch histogram undercounts", func(s *Snapshot) { s.Core.Epochs++; s.Core.ClosesByReason[0]++ }, "histogram count"},
		{"use-distance histogram overcounts", func(s *Snapshot) { s.Hist.PBUseDist.Observe(1) }, "prefetch-to-use"},
		{"closes inconsistent", func(s *Snapshot) { s.Core.ClosesByReason[6] += 2 }, "closes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := consistentSnapshot()
			c.mutate(&s)
			err := s.CheckInvariants()
			if err == nil {
				t.Fatal("mutated snapshot passed CheckInvariants")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestCheckInvariantsRejectsOutOfRangeFraction(t *testing.T) {
	// Hits exceeding issues must trip the explicit bound before the
	// derived accuracy check, but either way it cannot pass.
	s := consistentSnapshot()
	s.PF.Issued = 7
	s.PB.Inserts = 7
	s.Mem.Prefetch.Reads = 7
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("PB hits > issued passed CheckInvariants")
	}
}
