package prefetch

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

// proposer is a test prefetcher that proposes a fixed next-line pattern
// and records every line it asked the context to prefetch.
type proposer struct {
	proposed map[amo.Line]bool
	resets   int
}

func (p *proposer) Name() string { return "proposer" }

func (p *proposer) OnAccess(a Access, ctx *Context) {
	for d := int64(1); d <= 2; d++ {
		l := a.Line.Add(d)
		p.proposed[l] = true
		ctx.Prefetch(a.Now, l, NoTable)
	}
}

func (p *proposer) ResetStats() { p.resets++ }

// TestFilterIssuesSubsetOfProposals: with the filter installed as the
// context's issue filter, every line that lands in the prefetch buffer
// was proposed by the wrapped prefetcher — the filter can veto, never
// invent.
func TestFilterIssuesSubsetOfProposals(t *testing.T) {
	ctx := testContext()
	inner := &proposer{proposed: map[amo.Line]bool{}}
	f := must(NewFilter(inner, FilterConfig{TableEntries: 64, ThresholdPct: 80, Probe: 2, Retry: 8}))
	ctx.SetFilter(f)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		a := Access{Now: uint64(i), Line: amo.Line(rng.Intn(1 << 14)), Miss: true}
		// Occasional buffer hits feed the usefulness counters.
		if rng.Intn(4) == 0 {
			a = Access{Now: uint64(i), Line: a.Line, PBHit: true}
		}
		f.OnAccess(a, ctx)
	}
	st := ctx.Stats()
	if st.Issued == 0 || st.Filtered == 0 {
		t.Fatalf("want both issued and filtered prefetches, got %+v", st)
	}
	// Scan the whole line space: everything buffered was proposed.
	for l := amo.Line(0); l < 1<<14+3; l++ {
		if ctx.Buffer.Contains(l) && !inner.proposed[l] {
			t.Fatalf("line %d is buffered but was never proposed by the wrapped prefetcher", l)
		}
	}
}

// TestFilterThresholdZeroAdmitsEverything: degree-0 filtering is the
// identity — Admit never rejects, so the wrapped contender's issue
// stream is untouched (the sim-level byte-identity test is
// internal/sim's TestFilterThresholdZeroByteIdentity).
func TestFilterThresholdZeroAdmitsEverything(t *testing.T) {
	f := must(NewFilter(&proposer{proposed: map[amo.Line]bool{}}, FilterConfig{
		TableEntries: 16, ThresholdPct: 0, Probe: 1, Retry: 1,
	}))
	for i := 0; i < 100000; i++ {
		if !f.Admit(uint64(i), amo.Line(i%37)) {
			t.Fatalf("threshold-0 filter rejected a prefetch at step %d", i)
		}
	}
}

// TestFilterAdaptiveRejectAndReprobe pins the admission state machine on
// one page: Probe free issues, rejection once the threshold fails, and
// a re-probe after Retry rejections.
func TestFilterAdaptiveRejectAndReprobe(t *testing.T) {
	f := must(NewFilter(&proposer{proposed: map[amo.Line]bool{}}, FilterConfig{
		TableEntries: 16, ThresholdPct: 100, Probe: 2, Retry: 3,
	}))
	l := amo.Line(5) // never used: 0% usefulness
	for i := 0; i < 2; i++ {
		if !f.Admit(uint64(i), l) {
			t.Fatalf("probe issue %d rejected", i)
		}
	}
	for i := 0; i < 2; i++ {
		if f.Admit(100, l) {
			t.Fatalf("rejection %d admitted (page is 0%% useful)", i)
		}
	}
	if !f.Admit(200, l) {
		t.Fatal("third rejection should re-probe")
	}
	if f.Admit(300, l) {
		t.Fatal("rejection counter should restart after the re-probe")
	}
}

// TestFilterUsefulPagesKeepIssuing: prefetch-buffer hits on a page keep
// its used/issued ratio above threshold, so it never gets vetoed.
func TestFilterUsefulPagesKeepIssuing(t *testing.T) {
	ctx := testContext()
	inner := &proposer{proposed: map[amo.Line]bool{}}
	f := must(NewFilter(inner, FilterConfig{TableEntries: 16, ThresholdPct: 50, Probe: 1, Retry: 100}))
	l := amo.Line(7)
	for i := 0; i < 1000; i++ {
		if !f.Admit(uint64(i), l) {
			t.Fatalf("useful page vetoed at issue %d", i)
		}
		// Every issue is answered by a buffer hit on the same page.
		f.OnAccess(Access{Now: uint64(i), Line: l, PBHit: true}, ctx)
	}
}

func TestFilterNameAndForwarding(t *testing.T) {
	inner := &proposer{proposed: map[amo.Line]bool{}}
	f := must(NewFilter(inner, DefaultFilterConfig()))
	if got := f.Name(); got != "proposer+filter" {
		t.Errorf("Name() = %q", got)
	}
	f.ResetStats()
	if inner.resets != 1 {
		t.Errorf("ResetStats not forwarded (resets = %d)", inner.resets)
	}
}
