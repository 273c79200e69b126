// Package cpu implements the core timing model, built directly on the
// epoch MLP model of Section 2.1 of the paper.
//
// With off-chip latencies of several hundred cycles, instruction execution
// separates into epochs: periods of on-chip computation followed by
// overlapped off-chip accesses. An epoch begins when the number of
// outstanding off-chip misses transitions from 0 to 1 (the *epoch
// trigger*) and ends at a *window termination condition*: the reorder
// buffer filling, a serializing instruction, a mispredicted branch or load
// dependent on an off-chip miss, or an off-chip instruction miss. All
// overlappable off-chip accesses inside an epoch issue and complete
// together; the epoch's cost is the stall from the termination point to
// the completion of its last access.
//
// The model executes a condensed trace: on-chip (cache-hot) instructions
// advance time at a calibrated on-chip CPI, explicit latencies (L2 hits,
// prefetch-buffer hits) are charged directly, and off-chip misses drive
// the epoch state machine. This realizes the paper's performance
// equation — CPI = CPIperf(1-Overlap) + EPI*MissPenalty — mechanistically,
// with the overlap emerging from execution continuing under outstanding
// misses.
package cpu

import (
	"math"

	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
)

// Config parameterizes the core model.
type Config struct {
	// ROBSize bounds how many instructions past an epoch trigger the core
	// may execute before the window fills (128-entry reorder buffer in the
	// default configuration).
	ROBSize uint64
	// OnChipCPI is the calibrated cycles-per-instruction of cache-hot
	// execution (folding in fetch width, issue constraints and L1-resident
	// misses of the non-footprint accesses).
	OnChipCPI float64
	// MaxOutstanding bounds overlapped misses in an epoch (the 32-entry L2
	// MSHR file); reaching it terminates the window.
	MaxOutstanding int
}

// DefaultConfig matches Section 4.4 of the paper.
func DefaultConfig() Config {
	return Config{ROBSize: 128, OnChipCPI: 1.0, MaxOutstanding: 32}
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.ROBSize == 0 {
		return ebcperr.Invalidf("cpu: ROB size must be positive")
	}
	if !(c.OnChipCPI > 0) || math.IsInf(c.OnChipCPI, 1) {
		return ebcperr.Invalidf("cpu: on-chip CPI %v must be positive and finite", c.OnChipCPI)
	}
	if c.MaxOutstanding <= 0 {
		return ebcperr.Invalidf("cpu: max outstanding misses %d must be positive", c.MaxOutstanding)
	}
	return nil
}

// CloseReason says which window termination condition ended an epoch.
type CloseReason int

const (
	// CloseWindowFull: the reorder buffer filled.
	CloseWindowFull CloseReason = iota
	// CloseDependent: an access dependent on an outstanding miss.
	CloseDependent
	// CloseSerializing: a serializing instruction.
	CloseSerializing
	// CloseIFetch: an off-chip instruction miss.
	CloseIFetch
	// CloseBranch: a mispredicted branch dependent on an off-chip miss.
	CloseBranch
	// CloseMSHRFull: the MSHR file filled.
	CloseMSHRFull
	// CloseDrain: simulation drain.
	CloseDrain
	numCloseReasons
)

// Stats aggregates core activity over the measurement window.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	// OnChipCycles is time spent executing (not stalled on epochs).
	OnChipCycles uint64
	// OverlappedCycles is the subset of OnChipCycles spent while an epoch
	// was open (hidden under off-chip accesses).
	OverlappedCycles uint64
	// StallCycles is time stalled waiting for epoch completion.
	StallCycles uint64
	// Epochs is the number of 0->1 outstanding-miss transitions.
	Epochs uint64
	// MissesOverlapped counts off-chip accesses that joined an existing
	// epoch (did not trigger one).
	MissesOverlapped uint64
	// Closes counts epoch terminations by reason; StallByReason
	// attributes the stall cycles to the closing condition.
	Closes        [numCloseReasons]uint64
	StallByReason [numCloseReasons]uint64
}

// CPI returns overall cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// EPKI returns epochs per 1000 instructions.
func (s Stats) EPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Epochs) / float64(s.Instructions)
}

// Overlap returns the fraction of on-chip cycles hidden under epochs.
func (s Stats) Overlap() float64 {
	if s.OnChipCycles == 0 {
		return 0
	}
	return float64(s.OverlappedCycles) / float64(s.OnChipCycles)
}

// Model is the epoch-based core timing model.
type Model struct {
	cfg Config

	now   uint64
	insts uint64
	frac  float64 // fractional-cycle remainder of on-chip advance
	// baseNow/baseInsts mark the start of the measurement window; the
	// absolute clock keeps running across ResetStats so completion times
	// and bus cursors elsewhere in the system stay consistent.
	baseNow   uint64
	baseInsts uint64

	inEpoch          bool
	epochID          uint64
	epochTriggerInst uint64
	epochTriggerNow  uint64
	epochCompletion  uint64
	outstanding      int

	stats Stats

	// reg, when non-nil, receives the epoch histograms (length in cycles
	// and misses overlapped) as each epoch closes. skipHist suppresses
	// observing the one epoch that can straddle a ResetStats boundary:
	// it belongs to neither window, so skipping it keeps the histogram
	// counts exactly equal to stats.Epochs.
	reg      *metrics.Registry
	skipHist bool
}

// SetMetrics attaches a histogram registry the model populates as
// epochs close (nil detaches it). Attaching a registry does not change
// timing or counters in any way — the registry only observes.
func (m *Model) SetMetrics(reg *metrics.Registry) { m.reg = reg }

// New builds a core model. It returns an ErrInvalidConfig-classified
// error if the configuration fails Validate.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// Now returns the current cycle.
func (m *Model) Now() uint64 { return m.now }

// Insts returns retired instructions.
func (m *Model) Insts() uint64 { return m.insts }

// EpochID returns the id of the current (or most recent) epoch. IDs start
// at 1 with the first epoch.
func (m *Model) EpochID() uint64 { return m.epochID }

// InEpoch reports whether an epoch is open.
func (m *Model) InEpoch() bool { return m.inEpoch }

// Stats returns a copy of the counters for the current measurement window
// (since the last ResetStats).
func (m *Model) Stats() Stats {
	s := m.stats
	s.Instructions = m.insts - m.baseInsts
	s.Cycles = m.now - m.baseNow
	return s
}

// ResetStats zeroes counters at the warmup/measurement boundary. The
// absolute clock and instruction count keep running (so in-flight
// completion times and memory-bus cursors stay consistent); reported
// statistics are relative to this point.
func (m *Model) ResetStats() {
	m.stats = Stats{}
	m.baseNow = m.now
	m.baseInsts = m.insts
	// An epoch open across the boundary straddles both windows; its
	// eventual close must not be observed by the histograms.
	m.skipHist = m.inEpoch
}

//ebcp:hotpath
func (m *Model) advanceCycles(insts uint64) {
	c := float64(insts)*m.cfg.OnChipCPI + m.frac
	whole := uint64(c)
	m.frac = c - float64(whole)
	m.now += whole
	m.stats.OnChipCycles += whole
	if m.inEpoch {
		m.stats.OverlappedCycles += whole
	}
}

// Advance executes insts cache-hot instructions. If the reorder buffer
// fills while an epoch is open, the epoch is closed at that point and the
// remaining instructions execute after the stall.
//
//ebcp:hotpath
func (m *Model) Advance(insts uint64) {
	for m.inEpoch {
		room := m.epochTriggerInst + m.cfg.ROBSize - m.insts
		if insts < room {
			break
		}
		// Execute up to the window-full point, then stall.
		m.insts += room
		m.advanceCycles(room)
		insts -= room
		m.closeEpoch(CloseWindowFull)
	}
	m.insts += insts
	m.advanceCycles(insts)
}

// AddLatency charges explicit on-chip latency (an L2 or prefetch-buffer
// hit) to the execution time.
//
//ebcp:hotpath
func (m *Model) AddLatency(cycles uint64) {
	m.now += cycles
	m.stats.OnChipCycles += cycles
	if m.inEpoch {
		m.stats.OverlappedCycles += cycles
	}
}

// Serialize applies a serializing instruction: any open epoch closes.
//
//ebcp:hotpath
func (m *Model) Serialize() {
	if m.inEpoch {
		m.closeEpoch(CloseSerializing)
	}
}

//ebcp:hotpath
func (m *Model) closeEpoch(r CloseReason) {
	if !m.inEpoch {
		return
	}
	if m.epochCompletion > m.now {
		m.stats.StallCycles += m.epochCompletion - m.now
		m.stats.StallByReason[r] += m.epochCompletion - m.now
		m.now = m.epochCompletion
	}
	if m.reg != nil {
		if m.skipHist {
			m.skipHist = false
		} else {
			m.reg.EpochLen.Observe(m.now - m.epochTriggerNow)
			m.reg.EpochMisses.Observe(uint64(m.outstanding))
		}
	}
	m.inEpoch = false
	m.outstanding = 0
	m.stats.Closes[r]++
}

// CloseEpoch forces the open epoch (if any) closed, stalling to its
// completion. Used at drain points.
func (m *Model) CloseEpoch() { m.closeEpoch(CloseDrain) }

// BreakWindow applies a mispredicted branch that depends on an off-chip
// miss: the window terminates and the core stalls until the epoch
// completes. It is a no-op when no epoch is open (the branch resolved
// from on-chip data).
//
//ebcp:hotpath
func (m *Model) BreakWindow() {
	if m.inEpoch {
		m.closeEpoch(CloseBranch)
	}
}

// PrepareMiss applies the pre-issue window terminations of an off-chip
// access and returns the cycle at which the access can issue (the current
// cycle, after any stall):
//
//   - dependent: the access needs the value of an outstanding off-chip
//     load (pointer chase) — it cannot overlap, so the open epoch closes
//     (stalling to its completion) before the access issues.
//   - serializing: a serializing instruction precedes the access, likewise
//     closing the open epoch.
//
// Callers must use the returned cycle to compute the access's completion
// (e.g. via the memory model) and then report it with Miss.
//
//ebcp:hotpath
func (m *Model) PrepareMiss(dependent, serializing bool) (issueAt uint64) {
	if m.inEpoch && (dependent || serializing) {
		r := CloseDependent
		if serializing {
			r = CloseSerializing
		}
		m.closeEpoch(r)
	}
	return m.now
}

// Miss reports an off-chip access completing at the given cycle. The
// access joins the open epoch or triggers a new one. An off-chip
// instruction miss (ifetch) may overlap with the open epoch, but nothing
// after it can execute until it returns, so the epoch closes at its
// completion. Dependent/serializing terminations must be applied first via
// PrepareMiss.
//
// It returns true when the access triggered a new epoch.
//
//ebcp:hotpath
func (m *Model) Miss(completion uint64, ifetch bool) (newEpoch bool) {
	if !m.inEpoch {
		m.inEpoch = true
		m.epochID++
		m.stats.Epochs++
		m.epochTriggerInst = m.insts
		m.epochTriggerNow = m.now
		m.epochCompletion = completion
		newEpoch = true
	} else {
		m.stats.MissesOverlapped++
		if completion > m.epochCompletion {
			m.epochCompletion = completion
		}
	}
	m.outstanding++
	if ifetch {
		m.closeEpoch(CloseIFetch)
	} else if m.outstanding >= m.cfg.MaxOutstanding {
		m.closeEpoch(CloseMSHRFull)
	}
	return newEpoch
}
