// Package workload generates the synthetic commercial workload traces that
// stand in for the paper's proprietary full-system SPARC traces of the
// four benchmarks: a database OLTP workload, TPC-W, SPECjbb2005 and
// SPECjAppServer2004.
//
// The generators are transaction-structured. Each simulated transaction
// picks a transaction type (Zipf mix), walks the type's recurring code
// path (driving the instruction footprint), and dereferences a sequence
// of *chains* — fixed, recurring sequences of data steps modelling index
// walks, record fetches and object-graph traversals. A step is a small
// group of lines: a head load whose address depends on the previous
// step's head (pointer chasing — these dependences are what carve the
// miss stream into epochs) plus zero or more independent sibling loads
// that overlap with it. Chains succeed one another mostly
// deterministically (temporal correlation the correlation prefetchers can
// learn) with occasional branches (the divergence that bounds their
// accuracy). Steps come in three motifs: scattered pointer records with
// layout-determined siblings (spatial correlation for SMS), region walks
// (several steps inside one 2KB region), and strided runs (the small
// regular fraction a stream prefetcher can catch).
//
// Every structural property the evaluated prefetchers key on —
// temporal miss correlation, epoch grouping, spatial layouts, instruction
// working sets, divergence, reuse distances beyond the 2MB L2 — is
// explicit and parameterized, and the four benchmark parameter sets are
// calibrated so the *baseline* simulator statistics land near Table 1 of
// the paper (CPI, epochs and L2 miss rates per 1000 instructions).
package workload

import (
	"fmt"
	"math"
	"strings"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Params fully describes one synthetic workload.
type Params struct {
	// Name labels the workload in reports.
	Name string
	// Seed makes the workload deterministic.
	Seed int64
	// OnChipCPI is the calibrated cycles-per-instruction of cache-hot
	// execution for this workload (fed to the core model).
	OnChipCPI float64

	// TxnTypes is the number of distinct transaction types; ZipfTheta
	// skews their mix.
	TxnTypes  int
	ZipfTheta float64
	// ChainsPerTxn bounds how many chains one transaction dereferences.
	ChainsPerTxn [2]int
	// TxnGap is the inter-transaction instruction gap (commit, network).
	TxnGap [2]int

	// Chains is the size of the chain library; ChainSteps bounds steps per
	// chain; GroupSize bounds lines per step (head + siblings).
	Chains     int
	ChainSteps [2]int
	GroupSize  [2]int
	// PFollow is the probability a finished chain is followed by its
	// primary successor; otherwise one of Branch alternatives is taken.
	PFollow float64
	Branch  int

	// Variants is the number of alternative line groups per step: each
	// visit takes one data-dependent variant. This divergence bounds
	// prefetcher accuracy and makes prefetch degrees beyond the per-visit
	// group size useful, because correlation entries accumulate the union
	// of the variants seen.
	Variants int
	// CommonFrac is the fraction of scattered steps with a single variant
	// (branch-free path points). Their heads are stable correlation keys
	// trained on every visit, whose entries accumulate the full union of
	// the divergent successors — the state a high prefetch degree can
	// exploit.
	CommonFrac float64
	// NoiseFrac is the probability a step visit touches fresh,
	// never-recurring lines instead of its stored ones (allocation churn,
	// cold data): unpredictable for every prefetcher, it sets the hard
	// coverage ceiling.
	NoiseFrac float64
	// ColdExtra is the probability a step visit additionally touches one
	// fresh never-recurring line (a newly allocated object or buffer).
	// Cold lines keep their epochs real even when everything predictable
	// is prefetched, keep the trainer fed, and pollute correlation-table
	// entries the way live commercial footprints do.
	ColdExtra float64

	// Step-motif mix (fractions of steps, the remainder being scattered
	// pointer records): WalkFrac of steps continue inside the previous
	// step's 2KB region, StrideFrac belong to strided runs.
	WalkFrac   float64
	StrideFrac float64
	// Layouts is the number of distinct record layouts per transaction
	// type (sibling offset patterns inside a 2KB region).
	Layouts int
	// AlignFrac is the fraction of record heads that sit at their 2KB
	// region's base (page headers, slab-aligned object headers). Aligned
	// heads concentrate in a few L1 sets, which is the set-structured
	// locality the Tag Correlating Prefetcher needs; heaps with aligned
	// allocation (the Java benchmarks) have more of it than the
	// record-packed database workloads.
	AlignFrac float64

	// DataLines is the size of the data address space in 64B lines, at
	// most 1<<30 (64GB).
	DataLines uint64

	// CodeLinesPerType and PathBlocks shape the instruction footprint:
	// each type owns CodeLinesPerType instruction lines and its
	// transaction visits PathBlocks of them in a fixed recurring order.
	CodeLinesPerType int
	PathBlocks       int
	// CodeJump is the per-step probability that control flow branches to
	// a random position in the type's code path (data-dependent branches
	// taking rare paths), bounding how predictable the instruction miss
	// stream is.
	CodeJump float64

	// InstsPerStep bounds the on-chip instruction budget of one data step
	// (this is the main EPI knob).
	InstsPerStep [2]int
	// BlocksPerStep bounds how many code blocks are fetched per step.
	BlocksPerStep [2]int

	// BranchBreak is the probability that a step's last load is followed
	// by a mispredicted branch that depends on it — the dominant window
	// termination condition in commercial workloads (it makes the epoch
	// stall for the full miss penalty rather than draining the reorder
	// buffer first).
	BranchBreak float64
	// StoreFrac is the probability a step also writes a line; HotFrac the
	// probability it revisits a recently-touched line (an L2 hit).
	StoreFrac float64
	HotFrac   float64
	// SerializeEvery inserts a serializing instruction every ~N steps
	// (locks, system calls); 0 disables.
	SerializeEvery int
}

// maxDataLines bounds DataLines so every head line, stored as a signed
// 32-bit offset from the data base, fits with room for a stride run that
// starts up to 14 lines below its base or reaches 28 lines past it.
const maxDataLines = 1 << 30

// maxChainSteps bounds ChainSteps so a chain's motif runs (at most one
// per step) fit a step's 16-bit run index.
const maxChainSteps = 1 << 16

// maxGap bounds TxnGap[1] and InstsPerStep[1]. A step's records carry
// gaps below InstsPerStep[1], and the first record of a transaction also
// carries the pending transaction gap, so with both bounded the sum
// fits the record's 32-bit Gap.
const maxGap = 1 << 30

// maxTable bounds TxnTypes, PathBlocks and Layouts. New builds every
// type's code path (TxnTypes × PathBlocks lines) and every layout up
// front, so without a bound a large value overflows a slice length or
// exhausts memory instead of failing validation; at the bound the code
// paths hold at most 2^24 lines (128MB). The canonical workloads use at
// most 80 types, 448 path blocks and 12 layouts.
const maxTable = 1 << 12

// codeLines is how many instruction lines fit in the code region
// [codeBase, dataBase). Every type owns CodeLinesPerType of them, so
// TxnTypes × CodeLinesPerType must not exceed it, or instruction fetches
// would leave the region and alias data lines.
const codeLines = int((dataBase - codeBase) / amo.LineSize)

// Validate reports parameter errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (p Params) Validate() error {
	switch {
	case p.Name == "":
		return ebcperr.Invalidf("workload: name required")
	case !(p.OnChipCPI > 0) || math.IsInf(p.OnChipCPI, 1):
		return ebcperr.Invalidf("workload %s: OnChipCPI %v must be positive and finite", p.Name, p.OnChipCPI)
	case p.TxnTypes <= 0 || p.Chains <= 0:
		return ebcperr.Invalidf("workload %s: types and chains must be positive", p.Name)
	case p.ChainSteps[0] <= 0 || p.ChainSteps[1] < p.ChainSteps[0]:
		return ebcperr.Invalidf("workload %s: bad chain steps %v", p.Name, p.ChainSteps)
	case p.ChainSteps[1] > maxChainSteps:
		return ebcperr.Invalidf("workload %s: %d chain steps exceed %d (a step's motif run is 16 bits)", p.Name, p.ChainSteps[1], maxChainSteps)
	case p.Chains > math.MaxInt32/p.ChainSteps[1]:
		return ebcperr.Invalidf("workload %s: %d chains of up to %d steps exceed 2^31-1 steps (chain offsets are 32 bits)", p.Name, p.Chains, p.ChainSteps[1])
	case p.TxnGap[0] < 0 || p.TxnGap[1] < p.TxnGap[0]:
		return ebcperr.Invalidf("workload %s: bad transaction gap %v", p.Name, p.TxnGap)
	case math.IsNaN(p.ZipfTheta) || math.IsInf(p.ZipfTheta, 0):
		return ebcperr.Invalidf("workload %s: Zipf theta %v is not finite", p.Name, p.ZipfTheta)
	case p.GroupSize[0] <= 0 || p.GroupSize[1] < p.GroupSize[0]:
		return ebcperr.Invalidf("workload %s: bad group size %v", p.Name, p.GroupSize)
	case p.ChainsPerTxn[0] <= 0 || p.ChainsPerTxn[1] < p.ChainsPerTxn[0]:
		return ebcperr.Invalidf("workload %s: bad chains per txn %v", p.Name, p.ChainsPerTxn)
	case p.InstsPerStep[0] <= 0 || p.InstsPerStep[1] < p.InstsPerStep[0]:
		return ebcperr.Invalidf("workload %s: bad insts per step %v", p.Name, p.InstsPerStep)
	case p.BlocksPerStep[0] <= 0 || p.BlocksPerStep[1] < p.BlocksPerStep[0]:
		return ebcperr.Invalidf("workload %s: bad blocks per step %v", p.Name, p.BlocksPerStep)
	case tooWide(p.ChainSteps, p.TxnGap, p.GroupSize, p.ChainsPerTxn, p.InstsPerStep, p.BlocksPerStep):
		return ebcperr.Invalidf("workload %s: a [lo, hi] range holds more than %d values", p.Name, math.MaxInt)
	case p.TxnGap[1] > maxGap || p.InstsPerStep[1] > maxGap:
		return ebcperr.Invalidf("workload %s: transaction gap %v or insts per step %v exceeds %d (their sum is a record's 32-bit gap)", p.Name, p.TxnGap, p.InstsPerStep, maxGap)
	case !skewFinite(p.TxnTypes, p.ZipfTheta):
		return ebcperr.Invalidf("workload %s: Zipf theta %v overflows the weights of %d transaction types", p.Name, p.ZipfTheta, p.TxnTypes)
	case p.PFollow < 0 || p.PFollow > 1 || p.Branch < 1:
		return ebcperr.Invalidf("workload %s: bad succession %v/%d", p.Name, p.PFollow, p.Branch)
	case p.Branch > math.MaxInt32/p.Chains:
		return ebcperr.Invalidf("workload %s: %d chains of %d successors exceed 2^31-1 successors", p.Name, p.Chains, p.Branch)
	case p.WalkFrac+p.StrideFrac > 1 || p.WalkFrac < 0 || p.StrideFrac < 0:
		return ebcperr.Invalidf("workload %s: bad motif mix", p.Name)
	case p.CodeJump < 0 || p.CodeJump > 1:
		return ebcperr.Invalidf("workload %s: bad code jump fraction %v", p.Name, p.CodeJump)
	case p.DataLines == 0 || p.CodeLinesPerType <= 0 || p.PathBlocks <= 0:
		return ebcperr.Invalidf("workload %s: footprints must be positive", p.Name)
	case p.DataLines > maxDataLines:
		return ebcperr.Invalidf("workload %s: %d data lines exceed %d (a step's head is a 32-bit offset)", p.Name, p.DataLines, maxDataLines)
	case p.Layouts <= 0:
		return ebcperr.Invalidf("workload %s: layouts must be positive", p.Name)
	case p.TxnTypes > maxTable || p.PathBlocks > maxTable || p.Layouts > maxTable:
		return ebcperr.Invalidf("workload %s: %d types, %d path blocks or %d layouts exceed %d", p.Name, p.TxnTypes, p.PathBlocks, p.Layouts, maxTable)
	case p.CodeLinesPerType > codeLines/p.TxnTypes:
		return ebcperr.Invalidf("workload %s: %d types of %d code lines exceed the %d lines of the code region", p.Name, p.TxnTypes, p.CodeLinesPerType, codeLines)
	case p.AlignFrac < 0 || p.AlignFrac > 1:
		return ebcperr.Invalidf("workload %s: bad align fraction %v", p.Name, p.AlignFrac)
	case p.Variants < 1:
		return ebcperr.Invalidf("workload %s: variants must be >= 1", p.Name)
	case p.CommonFrac < 0 || p.CommonFrac > 1:
		return ebcperr.Invalidf("workload %s: bad common fraction %v", p.Name, p.CommonFrac)
	case p.NoiseFrac < 0 || p.NoiseFrac > 1:
		return ebcperr.Invalidf("workload %s: bad noise fraction %v", p.Name, p.NoiseFrac)
	case p.ColdExtra < 0 || p.ColdExtra > 1:
		return ebcperr.Invalidf("workload %s: bad cold-extra fraction %v", p.Name, p.ColdExtra)
	case p.BranchBreak < 0 || p.BranchBreak > 1:
		return ebcperr.Invalidf("workload %s: bad branch-break fraction %v", p.Name, p.BranchBreak)
	}
	return nil
}

// tooWide reports whether any range's width hi-lo+1, which
// Generator.between draws from, overflows an int. Validate calls it
// once every range has 0 <= lo <= hi, so hi-lo itself cannot overflow.
func tooWide(ranges ...[2]int) bool {
	for _, r := range ranges {
		if r[1]-r[0] == math.MaxInt {
			return true
		}
	}
	return false
}

// Database is the large-scale OLTP workload: the biggest data working set
// and miss rates of the four (Table 1: CPI 3.27, 4.07 epochs and 1.00
// instruction + 6.23 load misses per 1000 instructions), dominated by
// B-tree walks and record fetches over a database far larger than the L2.
func Database() Params {
	return Params{
		Name:      "Database",
		Seed:      0xDB01,
		OnChipCPI: 1.22,

		TxnTypes:     48,
		ZipfTheta:    0.35,
		ChainsPerTxn: [2]int{3, 8},
		TxnGap:       [2]int{300, 1200},

		Chains:     2600,
		ChainSteps: [2]int{18, 40},
		GroupSize:  [2]int{2, 5},
		PFollow:    0.85,
		Branch:     3,

		Variants:   4,
		CommonFrac: 0.35,
		NoiseFrac:  0.10,
		ColdExtra:  0.45,

		WalkFrac:   0.30,
		StrideFrac: 0.05,
		Layouts:    12,
		AlignFrac:  0.08,

		DataLines: 1 << 23, // 512MB data space

		CodeLinesPerType: 288,
		PathBlocks:       288,
		CodeJump:         0.12,

		InstsPerStep:  [2]int{200, 380},
		BlocksPerStep: [2]int{1, 3},

		BranchBreak:    0.85,
		StoreFrac:      0.35,
		HotFrac:        0.40,
		SerializeEvery: 64,
	}
}

// TPCW is the transactional web benchmark: a large instruction footprint
// (0.71 instruction misses per 1000), a comparatively small data miss
// rate (1.27 per 1000) and the fewest epochs (1.59 per 1000) — and the
// least predictable chain succession, which is why every prefetcher gains
// least on it.
func TPCW() Params {
	return Params{
		Name:      "TPC-W",
		Seed:      0x79C3,
		OnChipCPI: 1.15,

		TxnTypes:     64,
		ZipfTheta:    0.35,
		ChainsPerTxn: [2]int{2, 5},
		TxnGap:       [2]int{500, 2500},

		Chains:     2200,
		ChainSteps: [2]int{10, 24},
		GroupSize:  [2]int{1, 2},
		PFollow:    0.62,
		Branch:     3,

		Variants:   4,
		CommonFrac: 0.35,
		NoiseFrac:  0.32,
		ColdExtra:  0.30,

		WalkFrac:   0.18,
		StrideFrac: 0.05,
		Layouts:    10,
		AlignFrac:  0.08,

		DataLines: 1 << 22,

		CodeLinesPerType: 544,
		PathBlocks:       448,
		CodeJump:         0.30,

		InstsPerStep:  [2]int{650, 1300},
		BlocksPerStep: [2]int{2, 5},

		BranchBreak:    0.80,
		StoreFrac:      0.25,
		HotFrac:        0.60,
		SerializeEvery: 48,
	}
}

// SPECjbb2005 is the server-side Java business-logic benchmark: a small,
// L2-resident instruction footprint (0.12 instruction misses per 1000)
// but heavy object-graph chasing (4.30 load misses per 1000), and the
// most predictable traversals — the workload the paper's tuned EBCP
// improves most (31%).
func SPECjbb2005() Params {
	return Params{
		Name:      "SPECjbb2005",
		Seed:      0x3BB5,
		OnChipCPI: 0.63,

		TxnTypes:     10,
		ZipfTheta:    0.30,
		ChainsPerTxn: [2]int{4, 9},
		TxnGap:       [2]int{200, 800},

		Chains:     3000,
		ChainSteps: [2]int{12, 30},
		GroupSize:  [2]int{2, 3},
		PFollow:    0.88,
		Branch:     2,

		Variants:   4,
		CommonFrac: 0.30,
		NoiseFrac:  0.13,
		ColdExtra:  0.24,

		WalkFrac:   0.30,
		StrideFrac: 0.06,
		Layouts:    8,
		AlignFrac:  0.50,

		DataLines: 1 << 22,

		CodeLinesPerType: 1024,
		PathBlocks:       384,
		CodeJump:         0.10,

		InstsPerStep:  [2]int{240, 400},
		BlocksPerStep: [2]int{1, 2},

		BranchBreak:    0.85,
		StoreFrac:      0.40,
		HotFrac:        0.45,
		SerializeEvery: 96,
	}
}

// SPECjAppServer2004 is the J2EE application-server benchmark: the largest
// instruction footprint of the four (1.57 instruction misses per 1000)
// with a moderate data side (2.64 load misses per 1000).
func SPECjAppServer2004() Params {
	return Params{
		Name:      "SPECjAppServer2004",
		Seed:      0x3A54,
		OnChipCPI: 1.02,

		TxnTypes:     80,
		ZipfTheta:    0.50,
		ChainsPerTxn: [2]int{2, 6},
		TxnGap:       [2]int{400, 1600},

		Chains:     2400,
		ChainSteps: [2]int{10, 24},
		GroupSize:  [2]int{1, 2},
		PFollow:    0.84,
		Branch:     2,

		Variants:   3,
		CommonFrac: 0.35,
		NoiseFrac:  0.10,
		ColdExtra:  0.40,

		WalkFrac:   0.22,
		StrideFrac: 0.05,
		Layouts:    10,
		AlignFrac:  0.45,

		DataLines: 1 << 22,

		CodeLinesPerType: 560,
		PathBlocks:       448,
		CodeJump:         0.15,

		InstsPerStep:  [2]int{320, 580},
		BlocksPerStep: [2]int{2, 4},

		BranchBreak:    0.85,
		StoreFrac:      0.30,
		HotFrac:        0.50,
		SerializeEvery: 64,
	}
}

// Scaled shrinks a workload's working sets by factor f in (0,1]: fewer
// chains and transaction types mean each correlation key recurs
// proportionally more often, so short simulation windows train the
// prefetchers the way the paper's 150M-instruction warmup does at full
// scale. Cache-pressure relationships change slightly (smaller
// footprints), so Scaled is intended for tests and quick exploration,
// not for regenerating the paper's numbers. Chains and TxnTypes keep
// floors of 200 and 8, but never grow past their unscaled values. A
// factor outside (0,1] returns an ErrInvalidConfig-classified error.
func Scaled(p Params, f float64) (Params, error) {
	if f <= 0 || f > 1 {
		return Params{}, ebcperr.Invalidf("workload: scale factor %v must be in (0, 1]", f)
	}
	scale := func(v, floor int) int { return max(int(float64(v)*f), min(v, floor)) }
	p.Name = fmt.Sprintf("%s (x%.2f)", p.Name, f)
	p.Chains = scale(p.Chains, 200)
	p.TxnTypes = scale(p.TxnTypes, 8)
	return p, nil
}

// All returns the four commercial benchmark parameter sets in the order
// the paper reports them. It is the repository's one list of workloads:
// specs, ebcpd requests and the CLIs name a workload by its Params.Name
// and resolve it through ByName.
func All() []Params {
	return []Params{Database(), TPCW(), SPECjbb2005(), SPECjAppServer2004()}
}

// ByName returns the parameter set with the given name. Unknown names
// are ErrInvalidConfig errors listing every workload.
func ByName(name string) (Params, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, len(All()))
	for _, p := range All() {
		names = append(names, p.Name)
	}
	return Params{}, ebcperr.Invalidf("workload: unknown benchmark %q (known: %s)",
		name, strings.Join(names, ", "))
}
