package prefetch

import (
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/cache"
	"ebcp/internal/mem"
)

// testContext builds a context with a big prefetch buffer and an empty L2.
func testContext() *Context {
	m := must(mem.New(mem.DefaultConfig()))
	l2 := must(cache.New(cache.Config{Name: "L2", SizeBytes: 2 << 20, Ways: 4, HitLatency: 20}))
	pb := must(cache.NewPrefetchBuffer(1024, 4))
	return NewContext(m, pb, l2)
}

// feed drives a prefetcher with a simple miss-stream access.
func feed(p Prefetcher, ctx *Context, now uint64, line amo.Line, pc amo.PC, ifetch bool) {
	p.OnAccess(Access{
		Now:    now,
		Line:   line,
		PC:     pc,
		IFetch: ifetch,
		Miss:   true,
	}, ctx)
}

func TestContextPrefetchFiltersAndCounts(t *testing.T) {
	ctx := testContext()
	l := amo.Line(100)
	if !ctx.Prefetch(0, l, NoTable) {
		t.Fatal("first prefetch should issue")
	}
	if ctx.Prefetch(0, l, NoTable) {
		t.Fatal("duplicate prefetch should be filtered")
	}
	ctx.L2.Fill(amo.Line(200), false)
	if ctx.Prefetch(0, amo.Line(200), NoTable) {
		t.Fatal("prefetch of L2-resident line should be filtered")
	}
	st := ctx.Stats()
	if st.Issued != 1 || st.Redundant != 2 {
		t.Errorf("stats = %+v", st)
	}
	if !ctx.Buffer.Contains(l) {
		t.Error("issued prefetch should land in the buffer")
	}
}

func TestContextTableTraffic(t *testing.T) {
	ctx := testContext()
	if _, ok := ctx.TableRead(0); !ok {
		t.Error("table read should be accepted on an idle bus")
	}
	if !ctx.TableWrite(0) {
		t.Error("table write should be accepted on an idle bus")
	}
	st := ctx.Stats()
	if st.TableReads != 1 || st.TableWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStreamDetectsUnitStride(t *testing.T) {
	ctx := testContext()
	s := must(NewStream(32, 6))
	base := amo.Line(1 << 20)
	// Three consecutive misses confirm the stream and trigger prefetches.
	for i := 0; i < 5; i++ {
		feed(s, ctx, uint64(i*100), base.Add(int64(i)), 0x40, false)
	}
	for d := int64(1); d <= 6; d++ {
		if !ctx.Buffer.Contains(base.Add(4 + d)) {
			t.Errorf("line base+%d should be prefetched (6 ahead of the stream head)", 4+d)
		}
	}
}

func TestStreamDetectsNegativeAndNonUnitStride(t *testing.T) {
	for _, stride := range []int64{-1, 3, -2, 4} {
		ctx := testContext()
		s := must(NewStream(32, 4))
		base := amo.Line(1 << 21)
		for i := 0; i < 5; i++ {
			feed(s, ctx, uint64(i*100), base.Add(stride*int64(i)), 0x40, false)
		}
		if ctx.Stats().Issued == 0 {
			t.Errorf("stride %d: no prefetches issued", stride)
		}
		if !ctx.Buffer.Contains(base.Add(stride * 5)) {
			t.Errorf("stride %d: next line not prefetched", stride)
		}
	}
}

func TestStreamIgnoresRandom(t *testing.T) {
	ctx := testContext()
	s := must(NewStream(32, 6))
	// Far-apart random lines never confirm a stream.
	lines := []amo.Line{1000, 90000, 5000, 777777, 123, 400000, 2222, 999999}
	for i, l := range lines {
		feed(s, ctx, uint64(i*100), l, 0x40, false)
	}
	if got := ctx.Stats().Issued; got != 0 {
		t.Errorf("random stream issued %d prefetches", got)
	}
}

func TestStreamIgnoresIFetchAndHits(t *testing.T) {
	ctx := testContext()
	s := must(NewStream(32, 6))
	base := amo.Line(1 << 20)
	for i := 0; i < 6; i++ {
		s.OnAccess(Access{Line: base.Add(int64(i)), PC: 0x40, IFetch: true, Miss: true}, ctx)
		s.OnAccess(Access{Line: base.Add(int64(i)), PC: 0x40, L2Hit: true}, ctx)
	}
	if got := ctx.Stats().Issued; got != 0 {
		t.Errorf("ifetch/hit accesses trained the stream prefetcher: %d", got)
	}
}

func TestStreamCapacityLRU(t *testing.T) {
	ctx := testContext()
	s := must(NewStream(2, 4)) // only two streams
	// Interleave three streams; at most two can be live, but the test just
	// checks nothing panics and some prefetching still happens for the two
	// most recent.
	b1, b2, b3 := amo.Line(1<<20), amo.Line(1<<21), amo.Line(1<<22)
	for i := 0; i < 6; i++ {
		feed(s, ctx, uint64(i*10), b2.Add(int64(i)), 0x44, false)
		feed(s, ctx, uint64(i*10+1), b3.Add(int64(i)), 0x48, false)
		_ = b1
	}
	if ctx.Stats().Issued == 0 {
		t.Error("two concurrent streams within capacity should prefetch")
	}
}

// ghbStream replays a recurring miss sequence and checks GHB learns it.
func TestGHBLearnsRecurringDeltaSequence(t *testing.T) {
	ctx := testContext()
	g := must(GHBLarge(4))
	pc := amo.PC(0x80)
	// A fixed sequence of lines with irregular deltas, repeated.
	seq := []amo.Line{1000, 1007, 1003, 1050, 1020, 1090, 1060, 1130}
	now := uint64(0)
	for lap := 0; lap < 3; lap++ {
		for _, l := range seq {
			feed(g, ctx, now, l, pc, false)
			now += 300
			// Make the line cold again so the next lap misses.
			ctx.Buffer.Invalidate(l)
		}
	}
	if ctx.Stats().Issued == 0 {
		t.Fatal("GHB issued no prefetches on a perfectly recurring sequence")
	}
}

func TestGHBPrefetchesCorrectSuccessors(t *testing.T) {
	ctx := testContext()
	g := must(GHBLarge(3))
	pc := amo.PC(0x80)
	seq := []amo.Line{2000, 2013, 2002, 2040, 2019, 2077}
	now := uint64(0)
	// Two full laps to establish history.
	for lap := 0; lap < 2; lap++ {
		for _, l := range seq {
			feed(g, ctx, now, l, pc, false)
			now += 300
			ctx.Buffer.Invalidate(l)
		}
	}
	// Third lap: after the second miss, the next three lines should be
	// predicted.
	feed(g, ctx, now, seq[0], pc, false)
	now += 300
	feed(g, ctx, now, seq[1], pc, false)
	for _, want := range seq[2:5] {
		if !ctx.Buffer.Contains(want) {
			t.Errorf("line %v should be prefetched after the recurring pair", want)
		}
	}
}

func TestGHBSmallCapacityThrashes(t *testing.T) {
	ctxS, ctxL := testContext(), testContext()
	small, large := must(GHBSmall(4)), must(GHBLarge(4))
	pc := amo.PC(0x80)
	// A recurring sequence of *irregular* deltas much longer than the
	// small GHB (16K entries) but within the large one (256K).
	const seqLen = 40000
	rng := uint64(12345)
	seq := make([]amo.Line, seqLen)
	for i := range seq {
		rng = rng*6364136223846793005 + 1442695040888963407
		seq[i] = amo.Line(1<<22 + rng%(1<<24))
	}
	now := uint64(0)
	for lap := 0; lap < 3; lap++ {
		for _, l := range seq {
			feed(small, ctxS, now, l, pc, false)
			feed(large, ctxL, now, l, pc, false)
			now += 100
			ctxS.Buffer.Invalidate(l)
			ctxL.Buffer.Invalidate(l)
		}
	}
	if ctxL.Stats().Issued == 0 {
		t.Fatal("GHB large should learn a 40K-miss recurring sequence")
	}
	if ctxS.Stats().Issued >= ctxL.Stats().Issued/4 {
		t.Errorf("GHB small (issued %d) should thrash far below GHB large (issued %d)",
			ctxS.Stats().Issued, ctxL.Stats().Issued)
	}
}

func TestTCPLearnsPerSetTagSequence(t *testing.T) {
	ctx := testContext()
	tc := must(TCPLarge(2))
	// Lines in the same THT set (same low 7 bits of line number) with a
	// recurring tag sequence.
	mk := func(tag uint64) amo.Line { return amo.Line(tag<<7 | 5) }
	seq := []uint64{10, 99, 42, 7, 10, 99, 42, 7, 10, 99, 42, 7}
	now := uint64(0)
	for _, tag := range seq {
		feed(tc, ctx, now, mk(tag), 0x90, false)
		now += 200
		ctx.Buffer.Invalidate(mk(tag))
	}
	if ctx.Stats().Issued == 0 {
		t.Fatal("TCP issued no prefetches on a recurring per-set tag sequence")
	}
	// After the pattern is established, seeing (42,7) should predict 10.
	if !ctx.Buffer.Contains(mk(10)) && !ctx.Buffer.Contains(mk(99)) {
		t.Error("TCP failed to predict the recurring successor tags")
	}
}

func TestSMSLearnsSpatialPattern(t *testing.T) {
	ctx := testContext()
	s := NewSMS()
	pc := amo.PC(0xA0)
	pattern := []int{3, 7, 12, 20} // line offsets within the 2KB region
	// Visit more distinct regions than the 128-entry accumulation table
	// holds (generations commit to the PHT on eviction), all with the same
	// trigger PC/offset and pattern; then a fresh region's trigger should
	// stream the pattern.
	now := uint64(0)
	for r := 0; r < 400; r++ {
		base := amo.Line(uint64(1<<21+r*64) * 32) // distinct 32-line regions
		for _, off := range pattern {
			s.OnAccess(Access{Now: now, Line: base + amo.Line(off), PC: pc, Miss: true}, ctx)
			now += 500
		}
	}
	issuedBefore := ctx.Stats().Issued
	// Fresh region, trigger only.
	fresh := amo.Line(1 << 23)
	fresh = fresh - amo.Line(uint64(fresh)%32)
	s.OnAccess(Access{Now: now, Line: fresh + amo.Line(pattern[0]), PC: pc, Miss: true}, ctx)
	issued := ctx.Stats().Issued - issuedBefore
	if issued == 0 {
		t.Fatal("SMS did not stream a learned spatial pattern")
	}
	for _, off := range pattern[1:] {
		if !ctx.Buffer.Contains(fresh + amo.Line(off)) {
			t.Errorf("offset %d of the spatial pattern not prefetched", off)
		}
	}
}

func TestSMSIgnoresIFetch(t *testing.T) {
	ctx := testContext()
	s := NewSMS()
	for i := 0; i < 100; i++ {
		s.OnAccess(Access{Line: amo.Line(i * 32), PC: amo.PC(i), IFetch: true, Miss: true}, ctx)
	}
	if ctx.Stats().Issued != 0 {
		t.Error("SMS must not prefetch for instruction misses")
	}
}

func TestSolihinLearnsSuccessors(t *testing.T) {
	ctx := testContext()
	s := must(NewSolihin(6, 1, 1<<16))
	seq := []amo.Line{100, 987, 4022, 777, 1234, 9, 42, 10000}
	now := uint64(0)
	for lap := 0; lap < 2; lap++ {
		for _, l := range seq {
			feed(s, ctx, now, l, 0x40, false)
			now += 400
			ctx.Buffer.Invalidate(l)
		}
	}
	// On the second lap, a miss on seq[0] should have prefetched its
	// successors (they were trained on lap one... verify entry content).
	got := s.table.Lookup(seq[0])
	if len(got) == 0 {
		t.Fatal("Solihin entry for seq[0] empty after training")
	}
	found := 0
	for _, want := range seq[1:7] {
		for _, g := range got {
			if g == want {
				found++
				break
			}
		}
	}
	if found < 4 {
		t.Errorf("Solihin entry holds %d of 6 successors: %v", found, got)
	}
}

func TestSolihinWidthVsDepthShape(t *testing.T) {
	// Solihin 3,2 stores at most 6 addrs per entry but only trains 3 deep;
	// Solihin 6,1 trains 6 deep. After one pass, the depth-6 entry for the
	// head should contain deeper successors than the depth-3 one.
	seq := []amo.Line{10, 20, 30, 40, 50, 60, 70, 80}
	train := func(depth, width int) []amo.Line {
		ctx := testContext()
		s := must(NewSolihin(depth, width, 1<<16))
		now := uint64(0)
		for _, l := range seq {
			feed(s, ctx, now, l, 0x40, false)
			now += 400
		}
		return s.table.Lookup(seq[0])
	}
	has := func(addrs []amo.Line, want amo.Line) bool {
		for _, a := range addrs {
			if a == want {
				return true
			}
		}
		return false
	}
	d6 := train(6, 1)
	d3 := train(3, 2)
	if !has(d6, seq[6]) {
		t.Errorf("depth-6 entry should reach successor 6 deep: %v", d6)
	}
	if has(d3, seq[5]) || has(d3, seq[6]) {
		t.Errorf("depth-3 entry should not reach beyond 3 successors: %v", d3)
	}
}

func TestNonePrefetcher(t *testing.T) {
	ctx := testContext()
	var n None
	if n.Name() != "none" {
		t.Errorf("Name = %q", n.Name())
	}
	n.OnAccess(Access{Line: 1, Miss: true}, ctx)
	if ctx.Stats().Issued != 0 {
		t.Error("None must not prefetch")
	}
}
