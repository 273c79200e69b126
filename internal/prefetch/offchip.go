package prefetch

import (
	"fmt"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// OffChipPredictor is the interface a latency-reduction contender
// implements on top of Prefetcher. Instead of predicting *addresses*, it
// predicts which accesses will leave the chip and asks the core to
// dispatch their memory requests early, hiding part of the off-chip
// latency. It attaches itself to the Context from its own OnAccess, and
// the simulator consults it through Context.EarlyDispatch on the demand
// path before the access's outcome is known. PredictOffChip returns how
// many cycles of the miss latency an early dispatch would hide (0 = the
// access is predicted on-chip, no dispatch). The prediction must be a
// pure function of the trained state — training happens in OnAccess,
// after the outcome is known — and 0 before the first OnAccess.
type OffChipPredictor interface {
	Prefetcher
	PredictOffChip(core int, pc amo.PC, line amo.Line, ifetch bool) uint64
}

// Hermes is a perceptron-based off-chip load predictor in the style of
// Bera et al (MICRO 2022): a hashed perceptron sums small saturating
// weights selected by cheap features of the access — the PC, the page,
// the PC combined with the page offset, and a per-core recent-outcome
// history — and predicts "off-chip" when the sum clears an activation
// threshold. A positive prediction dispatches the memory request
// EarlyCycles before the cache hierarchy would have (bounded by the
// actual miss latency); a false positive launches a speculative read
// that buys nothing but bus occupancy (Context.SpeculativeRead, the
// PF.SpecReads/SpecDrops counters).
//
// Hermes is the structural counterpoint to EBCP in the frontier grid:
// it attacks the same off-chip stalls without a prefetch buffer, so its
// coverage and accuracy legitimately read zero — its entire effect is
// CPI via shortened miss latency (see DESIGN.md, "Contender map").
type Hermes struct {
	cfg  HermesConfig
	mask uint64
	// weights holds hermesFeatures banks of 1<<TableBits saturating
	// weights each, flat: bank f's weight i at f<<TableBits|i.
	weights []int8
	// history is the per-core outcome shift register (1 = off-chip).
	history  []uint64
	histMask uint64
}

// hermesFeatures is the fixed feature count of the hashed perceptron.
const hermesFeatures = 5

// HermesConfig shapes a Hermes predictor.
type HermesConfig struct {
	// TableBits is the log2 size of each feature's weight table (1..20).
	TableBits int `json:"table_bits"`
	// ActivationThreshold is the perceptron sum at or above which the
	// access is predicted off-chip (positive).
	ActivationThreshold int `json:"activation_threshold"`
	// TrainingThreshold keeps training while |sum| is below it, even on
	// correct predictions (the perceptron margin; positive).
	TrainingThreshold int `json:"training_threshold"`
	// EarlyCycles is the dispatch headroom: how many cycles before the
	// hierarchy's miss determination the request launches (positive).
	EarlyCycles uint64 `json:"early_cycles"`
	// HistoryBits is how many recent per-core outcomes feed the history
	// features (1..64).
	HistoryBits int `json:"history_bits"`
}

// DefaultHermesConfig is the tuned shape: 2K-entry weight tables, an
// activation threshold of 8, a training margin of 30, 24 cycles of
// dispatch headroom (the L2 lookup the early dispatch skips) and a
// 16-outcome history.
func DefaultHermesConfig() HermesConfig {
	return HermesConfig{
		TableBits:           11,
		ActivationThreshold: 8,
		TrainingThreshold:   30,
		EarlyCycles:         24,
		HistoryBits:         16,
	}
}

// NewHermes builds a Hermes predictor for a machine with the given core
// count (0 and 1 both mean single-core). A bad shape returns an
// ErrInvalidConfig-classified error.
func NewHermes(cfg HermesConfig, cores int) (*Hermes, error) {
	if cfg.TableBits <= 0 || cfg.TableBits > 20 {
		return nil, ebcperr.Invalidf("prefetch: Hermes table bits %d out of [1, 20]", cfg.TableBits)
	}
	if cfg.ActivationThreshold <= 0 || cfg.TrainingThreshold <= 0 {
		return nil, ebcperr.Invalidf("prefetch: Hermes thresholds %d/%d must be positive",
			cfg.ActivationThreshold, cfg.TrainingThreshold)
	}
	if cfg.EarlyCycles == 0 {
		return nil, ebcperr.Invalidf("prefetch: Hermes early-dispatch headroom must be positive")
	}
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 64 {
		return nil, ebcperr.Invalidf("prefetch: Hermes history bits %d out of [1, 64]", cfg.HistoryBits)
	}
	if cores < 1 {
		cores = 1
	}
	histMask := ^uint64(0)
	if cfg.HistoryBits < 64 {
		histMask = (1 << uint(cfg.HistoryBits)) - 1
	}
	return &Hermes{
		cfg:      cfg,
		mask:     (1 << uint(cfg.TableBits)) - 1,
		weights:  make([]int8, hermesFeatures<<uint(cfg.TableBits)),
		history:  make([]uint64, cores),
		histMask: histMask,
	}, nil
}

// Name implements Prefetcher.
func (h *Hermes) Name() string { return fmt.Sprintf("Hermes %d", h.cfg.EarlyCycles) }

//ebcp:hotpath
func hermesHash(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ (x >> 31)
}

// featureIndexes fills idx with the weight-table index of each feature
// for one access. The page split matches the 64-line (4KB) page of the
// workload generators.
//
//ebcp:hotpath
func (h *Hermes) featureIndexes(idx *[hermesFeatures]uint64, core int, pc amo.PC, line amo.Line, ifetch bool) {
	page := uint64(line) >> 6
	offset := uint64(line) & 63
	kind := uint64(0)
	if ifetch {
		kind = 1
	}
	hist := h.history[core]
	idx[0] = hermesHash(uint64(pc)<<1|kind) & h.mask
	idx[1] = hermesHash(page) & h.mask
	idx[2] = hermesHash(uint64(pc)^offset<<40) & h.mask
	idx[3] = hermesHash(hist<<1|kind) & h.mask
	idx[4] = hermesHash(uint64(pc)^hist<<24) & h.mask
}

// sum evaluates the perceptron for one access.
//
//ebcp:hotpath
func (h *Hermes) sum(idx *[hermesFeatures]uint64) int {
	s := 0
	for f := 0; f < hermesFeatures; f++ {
		s += int(h.weights[f<<uint(h.cfg.TableBits)|int(idx[f])])
	}
	return s
}

// PredictOffChip implements OffChipPredictor: it returns the dispatch
// headroom when the perceptron predicts off-chip, 0 otherwise, and for a
// thread that keeps no history register. Pure — training state changes
// only in OnAccess.
//
//ebcp:hotpath
func (h *Hermes) PredictOffChip(core int, pc amo.PC, line amo.Line, ifetch bool) uint64 {
	if core < 0 || core >= len(h.history) {
		return 0
	}
	var idx [hermesFeatures]uint64
	h.featureIndexes(&idx, core, pc, line, ifetch)
	if h.sum(&idx) >= h.cfg.ActivationThreshold {
		return h.cfg.EarlyCycles
	}
	return 0
}

// OnAccess implements Prefetcher: it attaches Hermes to the Context as
// its off-chip predictor, re-evaluates the perceptron for the access
// (identical to the demand-path prediction — the per-core state is
// untouched in between), trains on the actual outcome, charges a false
// positive's speculative read, and shifts the outcome into the core's
// history register. An access from a thread with no history register
// is reported on the Context and ignored.
//
//ebcp:hotpath
func (h *Hermes) OnAccess(a Access, ctx *Context) {
	ctx.predictor = h
	if a.Core < 0 || a.Core >= len(h.history) {
		ctx.RejectThread(h.Name(), a.Core, len(h.history))
		return
	}
	var idx [hermesFeatures]uint64
	h.featureIndexes(&idx, a.Core, a.PC, a.Line, a.IFetch)
	sum := h.sum(&idx)
	predicted := sum >= h.cfg.ActivationThreshold
	actual := a.OffChip()

	// Perceptron update rule: train on mispredictions, and on correct
	// predictions whose margin is still below the training threshold.
	if predicted != actual || abs(sum) < h.cfg.TrainingThreshold {
		delta := int8(-1)
		if actual {
			delta = 1
		}
		for f := 0; f < hermesFeatures; f++ {
			w := h.weights[f<<uint(h.cfg.TableBits)|int(idx[f])] + delta
			if w > hermesWeightMax {
				w = hermesWeightMax
			} else if w < hermesWeightMin {
				w = hermesWeightMin
			}
			h.weights[f<<uint(h.cfg.TableBits)|int(idx[f])] = w
		}
	}

	// A false positive launched a memory read the access didn't need.
	if predicted && !actual {
		ctx.SpeculativeRead(a.Now)
	}

	bit := uint64(0)
	if actual {
		bit = 1
	}
	h.history[a.Core] = (h.history[a.Core]<<1 | bit) & h.histMask
}

// hermesWeightMax/Min clamp the saturating perceptron weights.
const (
	hermesWeightMax = int8(63)
	hermesWeightMin = int8(-64)
)

//ebcp:hotpath
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
