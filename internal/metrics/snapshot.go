package metrics

import "ebcp/internal/ebcperr"

// NumCloseReasons is the number of epoch window-termination conditions
// the core model distinguishes (cpu.CloseReason); the per-reason arrays
// below are indexed in its declaration order: window-full, dependent,
// serializing, ifetch, branch, MSHR-full, drain.
const NumCloseReasons = 7

// CoreCounters are the core model's counters (cpu.Model counts into
// them) for one lane's measured window.
type CoreCounters struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// OnChipCycles is time spent executing (not stalled on epochs);
	// OverlappedCycles is the subset spent while an epoch was open
	// (hidden under off-chip accesses).
	OnChipCycles     uint64 `json:"on_chip_cycles"`
	OverlappedCycles uint64 `json:"overlapped_cycles"`
	// StallCycles is time stalled waiting for epoch completion.
	StallCycles uint64 `json:"stall_cycles"`
	// Epochs counts 0->1 outstanding-miss transitions; MissesOverlapped
	// counts off-chip accesses that joined an open epoch instead.
	Epochs           uint64 `json:"epochs"`
	MissesOverlapped uint64 `json:"misses_overlapped"`
	// ClosesByReason counts epoch terminations by reason; StallByReason
	// attributes the stall cycles to the closing condition.
	ClosesByReason [NumCloseReasons]uint64 `json:"closes_by_reason"`
	StallByReason  [NumCloseReasons]uint64 `json:"stall_by_reason"`
}

// CacheCounters are the event counters of one cache (cache.Cache counts
// into them). The cache counts accesses and misses and fills in Hits =
// Accesses - Misses when it returns its counters, so the accesses =
// hits + misses reconciliation is a real check only on a snapshot
// decoded from a report.
type CacheCounters struct {
	Accesses uint64 `json:"accesses"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Fills counts lines installed (demand fills and promotions).
	Fills uint64 `json:"fills"`
	// Evictions counts valid lines displaced by fills; DirtyEvictions
	// the subset needing a writeback.
	Evictions      uint64 `json:"evictions"`
	DirtyEvictions uint64 `json:"dirty_evictions"`
}

// PBCounters are the prefetch-buffer event counters
// (cache.PrefetchBuffer counts into them).
type PBCounters struct {
	Inserts     uint64 `json:"inserts"`
	Hits        uint64 `json:"hits"`         // demand hits on arrived lines
	PartialHits uint64 `json:"partial_hits"` // demand hits on in-flight lines
	// Evictions counts valid entries displaced by an insert. A hit
	// consumes its entry, so every displaced entry was never used.
	Evictions     uint64 `json:"evictions"`
	Replaced      uint64 `json:"replaced"` // inserts that found the line already present
	Invalidations uint64 `json:"invalidations"`
}

// PFCounters are the prefetcher activity counters (prefetch.Context
// counts into them). Filtered, SpecReads and SpecDrops are omitempty:
// they are zero for every contender that predates them, keeping older
// reports byte-identical.
type PFCounters struct {
	// Issued counts prefetches accepted by the memory system; Dropped
	// those rejected for lack of bandwidth.
	Issued  uint64 `json:"issued"`
	Dropped uint64 `json:"dropped"`
	// Redundant counts prefetch requests filtered because the line was
	// already in the L2 or the prefetch buffer.
	Redundant uint64 `json:"redundant"`
	// Filtered counts prefetch requests an installed issue filter
	// rejected (after the redundancy check, before memory traffic).
	Filtered uint64 `json:"filtered,omitempty"`
	// SpecReads / SpecDrops count speculative off-chip reads launched by
	// a latency predictor (Hermes-style early dispatch on an access that
	// turned out on-chip): accepted / rejected by memory bandwidth. They
	// buy no prefetch-buffer lines, only bus occupancy.
	SpecReads uint64 `json:"spec_reads,omitempty"`
	SpecDrops uint64 `json:"spec_drops,omitempty"`
	// TableReads / TableWrites count correlation-table traffic to main
	// memory (EBCP, Solihin), including dropped requests.
	TableReads  uint64 `json:"table_reads"`
	TableWrites uint64 `json:"table_writes"`
}

// MemClassCounters are one bandwidth class's memory-system counters.
type MemClassCounters struct {
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	ReadDrops  uint64 `json:"read_drops"`
	WriteDrops uint64 `json:"write_drops"`
}

// MemCounters name the memory system's four priority classes explicitly
// (rather than as an indexed array), so the JSON is self-describing.
// mem.System counts per class in an array and names the classes when it
// returns its counters.
type MemCounters struct {
	Demand     MemClassCounters `json:"demand"`
	TableRead  MemClassCounters `json:"table_read"`
	Prefetch   MemClassCounters `json:"prefetch"`
	TableWrite MemClassCounters `json:"table_write"`
	// ReadBusyCycles / WriteBusyCycles accumulate reserved bus
	// occupancy, for utilization reporting.
	ReadBusyCycles  uint64 `json:"read_busy_cycles"`
	WriteBusyCycles uint64 `json:"write_busy_cycles"`
}

// Snapshot is the run record: the complete raw-counter view of one
// lane's measured window. The components count into its leaf structs,
// the simulator assembles one per lane (sim.Result is this type), RunV1
// serializes it, and its methods are the paper's derived metrics, each
// with its one formula, shared by Derive, the experiment grids and the
// commands.
type Snapshot struct {
	Prefetcher string `json:"prefetcher"`
	// WarmupIncomplete reports that the trace ended before the warmup
	// window did: the counters were never reset, so they include warmup,
	// and a caller asking for a warmed run must treat them as invalid.
	WarmupIncomplete bool `json:"warmup_incomplete"`

	Core CoreCounters  `json:"core"`
	L1I  CacheCounters `json:"l1i"`
	L1D  CacheCounters `json:"l1d"`
	L2   CacheCounters `json:"l2"`

	// Off-chip demand misses by kind (merged/duplicate excluded).
	L2MissIFetch uint64 `json:"l2_miss_ifetch"`
	L2MissLoad   uint64 `json:"l2_miss_load"`
	L2MissStore  uint64 `json:"l2_miss_store"`
	// Prefetch-buffer hits by kind (full + partial).
	PBHitIFetch uint64 `json:"pb_hit_ifetch"`
	PBHitLoad   uint64 `json:"pb_hit_load"`

	PB  PBCounters  `json:"pb"`
	PF  PFCounters  `json:"pf"`
	Mem MemCounters `json:"mem"`

	// Hist carries the lane's histograms: epoch length in cycles, misses
	// per epoch, and prefetch-to-use distance (timeliness).
	Hist Registry `json:"histograms"`
}

// Derived are the paper's evaluation metrics computed from a Snapshot.
// DESIGN.md ("Derived metrics and where they appear in the paper") maps
// each field to its table or figure.
type Derived struct {
	// CPI is overall cycles per instruction (Table 1 row 1).
	CPI float64 `json:"cpi"`
	// EPKI is epochs per 1000 instructions (Table 1 row 2).
	EPKI float64 `json:"epochs_per_1k_insts"`
	// IFetchMPKI / LoadMPKI are off-chip instruction/load misses per
	// 1000 instructions (Table 1 rows 3-4).
	IFetchMPKI float64 `json:"l2_inst_mpki"`
	LoadMPKI   float64 `json:"l2_load_mpki"`
	// Overlap is the fraction of on-chip cycles hidden under epochs.
	Overlap float64 `json:"overlap"`
	// MeanEpochCycles / MeanEpochMisses summarize the epoch histograms.
	MeanEpochCycles float64 `json:"mean_epoch_cycles"`
	MeanEpochMisses float64 `json:"mean_epoch_misses"`
	// Coverage is PB hits / would-be baseline misses (Fig. 5).
	Coverage float64 `json:"coverage"`
	// Accuracy is useful prefetches / issued prefetches (Fig. 5).
	Accuracy float64 `json:"accuracy"`
	// Timeliness split, each a fraction of issued prefetches: OnTime
	// prefetches were used after their data arrived, Late ones were hit
	// while still in flight (partial hits), Early ones were evicted
	// unused. The three need not sum to 1 — the remainder is still
	// resident (or invalidated) at the end of the window.
	TimelyOnTime float64 `json:"timely_on_time"`
	TimelyLate   float64 `json:"timely_late"`
	TimelyEarly  float64 `json:"timely_early"`
}

// ratio is num/den, 0 when den is 0: a rate over an empty window reads
// 0, never NaN (NaN is not JSON).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perKiloInst is n per 1000 instructions, computed as
// float64(1000*n)/float64(insts): the product is exact, so the one
// rounding is the division's and the result is correctly rounded.
func (s Snapshot) perKiloInst(n uint64) float64 { return ratio(1000*n, s.Core.Instructions) }

// CPI is overall cycles per instruction (Table 1 row 1).
func (s Snapshot) CPI() float64 { return ratio(s.Core.Cycles, s.Core.Instructions) }

// EPKI is epochs per 1000 instructions (Table 1 row 2; Fig. 5's EPI).
func (s Snapshot) EPKI() float64 { return s.perKiloInst(s.Core.Epochs) }

// IFetchMPKI is off-chip instruction misses per 1000 instructions
// (Table 1 row 3).
func (s Snapshot) IFetchMPKI() float64 { return s.perKiloInst(s.L2MissIFetch) }

// LoadMPKI is off-chip load misses per 1000 instructions (Table 1 row 4).
func (s Snapshot) LoadMPKI() float64 { return s.perKiloInst(s.L2MissLoad) }

// Overlap is the fraction of on-chip cycles hidden under epochs.
func (s Snapshot) Overlap() float64 {
	return ratio(s.Core.OverlappedCycles, s.Core.OnChipCycles)
}

// pbHits is the prefetches used: full plus partial prefetch-buffer hits.
func (s Snapshot) pbHits() uint64 { return s.PBHitIFetch + s.PBHitLoad }

// Coverage is the fraction of would-be off-chip instruction and load
// misses the prefetch buffer satisfied: hits / (hits + remaining
// misses) (Fig. 5).
func (s Snapshot) Coverage() float64 {
	return ratio(s.pbHits(), s.pbHits()+s.L2MissIFetch+s.L2MissLoad)
}

// Accuracy is used prefetches / issued prefetches (Fig. 5).
func (s Snapshot) Accuracy() float64 { return ratio(s.pbHits(), s.PF.Issued) }

// Timeliness is on-time used prefetches / issued prefetches: full
// prefetch-buffer hits only, excluding partial hits on lines still in
// flight (a partial hit arrived too late to hide the whole latency).
func (s Snapshot) Timeliness() float64 { return ratio(s.PB.Hits, s.PF.Issued) }

// Improvement is the overall performance improvement of this run over
// a baseline run, CPIbase/CPI - 1 (the paper's primary metric); 0 when
// this run's CPI is 0.
func (s Snapshot) Improvement(base Snapshot) float64 {
	if s.CPI() == 0 {
		return 0
	}
	return base.CPI()/s.CPI() - 1
}

// EPIReduction is the relative reduction in epochs per instruction
// against a baseline run, 1 - EPKI/EPKIbase; 0 when the baseline's EPKI
// is 0.
func (s Snapshot) EPIReduction(base Snapshot) float64 {
	if base.EPKI() == 0 {
		return 0
	}
	return 1 - s.EPKI()/base.EPKI()
}

// Snapshot returns s. It keeps the benchmark's res.Snapshot() calls
// compiling now that sim.Result is a Snapshot; ROADMAP item 10's change
// to the benchmark drops those calls and deletes it.
func (s Snapshot) Snapshot() Snapshot { return s }

// Derive computes the paper's metrics from the raw counters, through
// the methods above.
func (s *Snapshot) Derive() Derived {
	return Derived{
		CPI:             s.CPI(),
		EPKI:            s.EPKI(),
		IFetchMPKI:      s.IFetchMPKI(),
		LoadMPKI:        s.LoadMPKI(),
		Overlap:         s.Overlap(),
		MeanEpochCycles: s.Hist.EpochLen.Mean(),
		MeanEpochMisses: s.Hist.EpochMisses.Mean(),
		Coverage:        s.Coverage(),
		Accuracy:        s.Accuracy(),
		TimelyOnTime:    s.Timeliness(),
		TimelyLate:      ratio(s.PB.PartialHits, s.PF.Issued),
		TimelyEarly:     ratio(s.PB.Evictions, s.PF.Issued),
	}
}

// CheckInvariants verifies that the snapshot's counters reconcile with
// each other: per-cache accesses = hits + misses, kind-split totals
// match their aggregate counters, prefetch-buffer activity is bounded
// by prefetches issued, every derived fraction lies in [0, 1], and
// every histogram's bucket counts sum to its Count — with the epoch
// histograms tied exactly to the core's epoch counter.
//
// The invariants hold for snapshots of single-core runs (sim.Run). A
// CMP lane's snapshot duplicates the *shared* PB/PF/memory counters
// into every lane, so its cross-component identities intentionally do
// not reconcile per lane; do not call this on CMP per-core snapshots.
func (s *Snapshot) CheckInvariants() error {
	for _, c := range []struct {
		name string
		c    CacheCounters
	}{{"l1i", s.L1I}, {"l1d", s.L1D}, {"l2", s.L2}} {
		if c.c.Hits+c.c.Misses != c.c.Accesses {
			return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: %s hits %d + misses %d != accesses %d", c.name, c.c.Hits, c.c.Misses, c.c.Accesses)
		}
		if c.c.Evictions > c.c.Fills {
			return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: %s evictions %d exceed fills %d", c.name, c.c.Evictions, c.c.Fills)
		}
		if c.c.DirtyEvictions > c.c.Evictions {
			return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: %s dirty evictions %d exceed evictions %d", c.name, c.c.DirtyEvictions, c.c.Evictions)
		}
	}

	// Every L2 miss is resolved exactly one way: a prefetch-buffer hit
	// (full or partial) or a real off-chip miss of some kind.
	resolved := s.PB.Hits + s.PB.PartialHits + s.L2MissIFetch + s.L2MissLoad + s.L2MissStore
	if resolved != s.L2.Misses {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: L2 misses %d != PB hits %d+%d + kind-split misses %d+%d+%d",
			s.L2.Misses, s.PB.Hits, s.PB.PartialHits, s.L2MissIFetch, s.L2MissLoad, s.L2MissStore)
	}
	pbHits := s.pbHits()
	if pbHits != s.PB.Hits+s.PB.PartialHits {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: kind-split PB hits %d+%d != PB hits %d + partial %d",
			s.PBHitIFetch, s.PBHitLoad, s.PB.Hits, s.PB.PartialHits)
	}

	// Prefetch-buffer flow: lines enter only via issued prefetches (the
	// context filters already-present lines, so every issue is an
	// insert) and each can be used at most once.
	if s.PB.Inserts != s.PF.Issued {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: PB inserts %d != prefetches issued %d", s.PB.Inserts, s.PF.Issued)
	}
	if pbHits > s.PF.Issued {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: PB hits %d exceed prefetches issued %d", pbHits, s.PF.Issued)
	}
	if s.Mem.Prefetch.Reads != s.PF.Issued+s.PF.SpecReads {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: prefetch-class memory reads %d != prefetches issued %d + speculative reads %d",
			s.Mem.Prefetch.Reads, s.PF.Issued, s.PF.SpecReads)
	}
	if s.Mem.Prefetch.ReadDrops != s.PF.Dropped+s.PF.SpecDrops {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: prefetch-class read drops %d != prefetches dropped %d + speculative drops %d",
			s.Mem.Prefetch.ReadDrops, s.PF.Dropped, s.PF.SpecDrops)
	}

	// Core time: the clock only advances through on-chip execution and
	// epoch stalls, and stall cycles are fully attributed to reasons.
	if s.Core.OnChipCycles+s.Core.StallCycles != s.Core.Cycles {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: on-chip %d + stall %d cycles != total %d",
			s.Core.OnChipCycles, s.Core.StallCycles, s.Core.Cycles)
	}
	if s.Core.OverlappedCycles > s.Core.OnChipCycles {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: overlapped cycles %d exceed on-chip cycles %d", s.Core.OverlappedCycles, s.Core.OnChipCycles)
	}
	var stallSum uint64
	for _, v := range s.Core.StallByReason {
		stallSum += v
	}
	if stallSum != s.Core.StallCycles {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: stall-by-reason sum %d != stall cycles %d", stallSum, s.Core.StallCycles)
	}

	// Histograms: bucket sums equal counts, and the epoch histograms
	// observed exactly the epochs the core counted. (An epoch open
	// across the warmup reset closes post-reset but belongs to neither
	// window; the core model skips observing it, keeping the identity
	// exact.) Closes may exceed Epochs by that one skipped epoch.
	for _, h := range []struct {
		name string
		h    *Histogram
	}{
		{"epoch_len_cycles", &s.Hist.EpochLen},
		{"misses_per_epoch", &s.Hist.EpochMisses},
		{"prefetch_to_use_cycles", &s.Hist.PBUseDist},
	} {
		if h.h.Total() != h.h.Count {
			return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: histogram %s bucket sum %d != count %d", h.name, h.h.Total(), h.h.Count)
		}
	}
	if s.Hist.EpochLen.Count != s.Core.Epochs {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: epoch-length histogram count %d != epochs %d", s.Hist.EpochLen.Count, s.Core.Epochs)
	}
	if s.Hist.EpochMisses.Count != s.Core.Epochs {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: misses-per-epoch histogram count %d != epochs %d", s.Hist.EpochMisses.Count, s.Core.Epochs)
	}
	if s.Hist.PBUseDist.Count != pbHits {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: prefetch-to-use histogram count %d != PB hits %d", s.Hist.PBUseDist.Count, pbHits)
	}
	var closeSum uint64
	for _, v := range s.Core.ClosesByReason {
		closeSum += v
	}
	if closeSum < s.Core.Epochs || closeSum > s.Core.Epochs+1 {
		return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: epoch closes %d inconsistent with epochs %d", closeSum, s.Core.Epochs)
	}

	// Derived fractions are probabilities.
	d := s.Derive()
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"overlap", d.Overlap},
		{"coverage", d.Coverage},
		{"accuracy", d.Accuracy},
		{"timely_on_time", d.TimelyOnTime},
		{"timely_late", d.TimelyLate},
		{"timely_early", d.TimelyEarly},
	} {
		if f.v < 0 || f.v > 1 {
			return ebcperr.Wrap(ebcperr.ErrInvariant, "metrics: derived %s = %v outside [0, 1]", f.name, f.v)
		}
	}
	return nil
}
