package prefetch

import (
	"errors"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// hermesTrain drives one access through training with the given actual
// outcome.
func hermesTrain(h *Hermes, ctx *Context, pc amo.PC, line amo.Line, offchip bool) {
	h.OnAccess(Access{PC: pc, Line: line, Miss: offchip, L2Hit: !offchip}, ctx)
}

// TestHermesLearnsBimodalPCs reads the predictions the way the demand
// path does, through the Context Hermes attaches itself to.
func TestHermesLearnsBimodalPCs(t *testing.T) {
	ctx := testContext()
	h := must(NewHermes(DefaultHermesConfig(), 1))
	missPC, hitPC := amo.PC(0x1000), amo.PC(0x2000)
	for i := 0; i < 500; i++ {
		hermesTrain(h, ctx, missPC, amo.Line(64*i), true)
		hermesTrain(h, ctx, hitPC, amo.Line(64*i+7), false)
	}
	if got := ctx.EarlyDispatch(0, missPC, amo.Line(64*1000), false); got == 0 {
		t.Error("always-missing PC predicted on-chip after training")
	} else if got != DefaultHermesConfig().EarlyCycles {
		t.Errorf("positive prediction returned %d cycles, want EarlyCycles %d", got, DefaultHermesConfig().EarlyCycles)
	}
	if got := ctx.EarlyDispatch(0, hitPC, amo.Line(64*1000+7), false); got != 0 {
		t.Errorf("always-hitting PC predicted off-chip (%d cycles)", got)
	}
}

// TestHermesPredictionIsPure: PredictOffChip must not change state —
// the simulator consults it on the demand path before the outcome is
// known, and determinism requires it to be read-only.
func TestHermesPredictionIsPure(t *testing.T) {
	ctx := testContext()
	h := must(NewHermes(DefaultHermesConfig(), 1))
	for i := 0; i < 200; i++ {
		hermesTrain(h, ctx, amo.PC(0x30+i%7), amo.Line(i*3), i%2 == 0)
	}
	probe := func() []uint64 {
		var out []uint64
		for i := 0; i < 64; i++ {
			out = append(out, h.PredictOffChip(0, amo.PC(0x30+i%7), amo.Line(i*3), i%2 == 0))
		}
		return out
	}
	first := probe()
	for round := 0; round < 10; round++ {
		again := probe()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("prediction %d changed from %d to %d after repeated pure queries", i, first[i], again[i])
			}
		}
	}
}

// TestHermesFalsePositiveChargesSpeculativeRead: a predicted-off-chip
// access that stays on-chip books its wasted early dispatch as a
// speculative read against the prefetch bandwidth class.
func TestHermesFalsePositiveChargesSpeculativeRead(t *testing.T) {
	ctx := testContext()
	h := must(NewHermes(DefaultHermesConfig(), 1))
	pc := amo.PC(0x4000)
	for i := 0; i < 500; i++ {
		hermesTrain(h, ctx, pc, amo.Line(64*i), true)
	}
	if h.PredictOffChip(0, pc, amo.Line(999999), false) == 0 {
		t.Fatal("setup: PC should predict off-chip")
	}
	before := ctx.Stats().SpecReads
	hermesTrain(h, ctx, pc, amo.Line(999999), false) // actually on-chip
	if got := ctx.Stats().SpecReads; got != before+1 {
		t.Errorf("SpecReads = %d, want %d (one speculative read per false positive)", got, before+1)
	}
	// True positives and true negatives charge nothing.
	before = ctx.Stats().SpecReads
	hermesTrain(h, ctx, pc, amo.Line(888888), true)
	if got := ctx.Stats().SpecReads; got != before {
		t.Errorf("true positive charged a speculative read (%d → %d)", before, got)
	}
}

// TestHermesPerCoreHistory: outcomes shift into the history of the
// access's core only, so per-core streams train independent features.
func TestHermesPerCoreHistory(t *testing.T) {
	ctx := testContext()
	h := must(NewHermes(DefaultHermesConfig(), 4))
	for i := 0; i < 50; i++ {
		h.OnAccess(Access{Core: 2, PC: 0x10, Line: amo.Line(i), Miss: true}, ctx)
	}
	if h.history[2] == 0 {
		t.Error("core 2's history register never recorded an off-chip outcome")
	}
	for _, core := range []int{0, 1, 3} {
		if h.history[core] != 0 {
			t.Errorf("core %d's history changed without any access on it", core)
		}
	}
}

// TestHermesUntrackedThread: an access from a thread with no history
// register is reported on the Context and changes no state, and a
// prediction for such a thread is 0 rather than an index past the
// registers.
func TestHermesUntrackedThread(t *testing.T) {
	ctx := testContext()
	h := must(NewHermes(DefaultHermesConfig(), 2))
	h.OnAccess(Access{Core: 1, PC: 0x10, Line: 5, Miss: true}, ctx)
	if err := ctx.Err(); err != nil {
		t.Fatalf("tracked thread reported: %v", err)
	}
	h.OnAccess(Access{Core: 2, PC: 0x10, Line: 5, Miss: true}, ctx)
	if err := ctx.Err(); !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Fatalf("untracked thread: Err() = %v, want ErrInvalidConfig", err)
	}
	if h.history[0] != 0 || h.history[1] != 1 {
		t.Errorf("history registers %v, want [0 1]", h.history)
	}
	for _, core := range []int{-1, 2} {
		if got := ctx.EarlyDispatch(core, 0x10, 5, false); got != 0 {
			t.Errorf("prediction for untracked thread %d = %d, want 0", core, got)
		}
	}
}

func TestHermesName(t *testing.T) {
	h := must(NewHermes(DefaultHermesConfig(), 0))
	if got := h.Name(); got != "Hermes 24" {
		t.Errorf("Name() = %q", got)
	}
}
