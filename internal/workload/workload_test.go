package workload

import (
	"math"
	"math/rand"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/trace"
)

func TestAllParamsValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	muts := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.OnChipCPI = 0 },
		func(p *Params) { p.TxnTypes = 0 },
		func(p *Params) { p.Chains = 0 },
		func(p *Params) { p.ChainSteps = [2]int{5, 2} },
		func(p *Params) { p.ChainSteps = [2]int{10, 1<<16 + 1} },
		func(p *Params) { p.Chains = math.MaxInt32/40 + 1 },
		func(p *Params) { p.TxnGap = [2]int{800, 200} },
		func(p *Params) { p.TxnGap = [2]int{-1, 200} },
		func(p *Params) { p.TxnGap = [2]int{0, math.MaxInt} },
		func(p *Params) { p.TxnGap = [2]int{300, maxGap + 1} },
		func(p *Params) { p.InstsPerStep = [2]int{200, maxGap + 1} },
		func(p *Params) { p.ZipfTheta = math.NaN() },
		func(p *Params) { p.ZipfTheta = math.Inf(1) },
		func(p *Params) { p.ZipfTheta = -2000 },
		func(p *Params) { p.GroupSize = [2]int{0, 2} },
		func(p *Params) { p.ChainsPerTxn = [2]int{3, 1} },
		func(p *Params) { p.InstsPerStep = [2]int{0, 10} },
		func(p *Params) { p.BlocksPerStep = [2]int{2, 1} },
		func(p *Params) { p.PFollow = 1.5 },
		func(p *Params) { p.Branch = 0 },
		func(p *Params) { p.Branch = 1 << 62 },
		func(p *Params) { p.Variants = 0 },
		func(p *Params) { p.CommonFrac = -0.1 },
		func(p *Params) { p.NoiseFrac = 2 },
		func(p *Params) { p.ColdExtra = -1 },
		func(p *Params) { p.BranchBreak = 1.5 },
		func(p *Params) { p.WalkFrac = 0.9; p.StrideFrac = 0.2 },
		func(p *Params) { p.DataLines = 0 },
		func(p *Params) { p.DataLines = 1<<30 + 1 },
		func(p *Params) { p.CodeLinesPerType = 0 },
		func(p *Params) { p.Layouts = 0 },
		func(p *Params) { p.Layouts = maxTable + 1 },
		func(p *Params) { p.TxnTypes, p.PathBlocks = maxTable, maxTable+1 },
		func(p *Params) { p.AlignFrac = -0.2 },
		func(p *Params) { p.CodeJump = 1.01 },
	}
	for i, mut := range muts {
		p := Database()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// The table bound itself is valid.
	p := Database()
	p.TxnTypes, p.PathBlocks, p.Layouts = maxTable, maxTable, maxTable
	if err := p.Validate(); err != nil {
		t.Errorf("tables at the bound rejected: %v", err)
	}
	// Thetas near 0 and strong but finite skews stay valid.
	for _, theta := range []float64{-1e-12, 1e-12, -2, 2000} {
		p := Database()
		p.ZipfTheta = theta
		if err := p.Validate(); err != nil {
			t.Errorf("theta %v rejected: %v", theta, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil || got.Name != want.Name {
			t.Errorf("ByName(%q) = %v, %v", want.Name, got.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, g2 := must(New(SPECjbb2005())), must(New(SPECjbb2005()))
	for i := 0; i < 50000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1 != r2 {
			t.Fatalf("record %d differs: %+v vs %+v", i, r1, r2)
		}
	}
}

// TestGeneratorBatchMatchesNext locks the generator's native ReadBatch to
// the batched-Source contract: the bulk path delivers exactly the record
// stream Next delivers, across uneven batch sizes that straddle the
// emission queue's step boundaries.
func TestGeneratorBatchMatchesNext(t *testing.T) {
	gn, gb := must(New(Database())), must(New(Database()))
	sizes := []int{1, 3, 7, 64, claimBatch}
	buf := make([]trace.Record, claimBatch)
	i := 0
	for round := 0; round < 5000; round++ {
		size := sizes[round%len(sizes)]
		n := gb.ReadBatch(buf[:size])
		if n != size {
			t.Fatalf("ReadBatch(%d) = %d on an endless stream", size, n)
		}
		for _, rb := range buf[:n] {
			rn, ok := gn.Next()
			if !ok {
				t.Fatal("Next exhausted on an endless stream")
			}
			if rn != rb {
				t.Fatalf("record %d differs: next %+v vs batch %+v", i, rn, rb)
			}
			i++
		}
	}
}

const claimBatch = 1024

func TestGeneratorSeedsDiffer(t *testing.T) {
	p := Database()
	p2 := p
	p2.Seed++
	g1, g2 := must(New(p)), must(New(p2))
	same := 0
	for i := 0; i < 1000; i++ {
		r1, _ := g1.Next()
		r2, _ := g2.Next()
		if r1.Addr == r2.Addr {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different seeds produced %d/1000 identical addresses", same)
	}
}

// drain pulls n records.
func drain(g *Generator, n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i], _ = g.Next()
	}
	return recs
}

func TestStructuralProperties(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			recs := drain(must(New(p)), 300000)
			st := trace.Measure(trace.NewSlice(recs))
			if st.Loads == 0 || st.IFetches == 0 || st.Stores == 0 {
				t.Fatalf("missing record kinds: %+v", st)
			}
			// Dependent flags exist (pointer chasing) but not on stores.
			if st.Dependent == 0 {
				t.Error("no dependent accesses")
			}
			for _, r := range recs {
				if r.Kind == trace.Store && r.DependsOnMiss {
					t.Fatal("store marked dependent")
				}
				if r.Kind == trace.IFetch && amo.PC(r.Addr) != r.PC {
					t.Fatal("ifetch PC must equal its address")
				}
			}
			// Data footprint far exceeds the 2MB L2.
			if st.FootprintBytes() < 4<<20 {
				t.Errorf("footprint %.1fMB too small to stress a 2MB L2",
					float64(st.FootprintBytes())/(1<<20))
			}
			// Window breaks present (the dominant termination condition).
			if st.WindowBreaks == 0 {
				t.Error("no window-break markers")
			}
		})
	}
}

func TestRecurrence(t *testing.T) {
	// The same data lines must recur across a long window (the temporal
	// correlation the prefetchers learn): count lines seen 2+ times.
	recs := drain(must(New(SPECjbb2005())), 2_000_000)
	counts := make(map[amo.Line]int)
	for _, r := range recs {
		if r.Kind == trace.Load {
			counts[amo.LineOf(r.Addr)]++
		}
	}
	recurring := 0
	for _, c := range counts {
		if c >= 2 {
			recurring++
		}
	}
	if frac := float64(recurring) / float64(len(counts)); frac < 0.2 {
		t.Errorf("only %.2f of lines recur; chains are not recurring", frac)
	}
}

func TestInstructionRateBallpark(t *testing.T) {
	// Trace-level miss-event density should be in the right ballpark for
	// calibration (records carry only footprint accesses).
	for _, p := range All() {
		g := must(New(p))
		st := trace.Measure(trace.NewLimit(g, 5_000_000))
		perK := 1000 * float64(st.Records) / float64(st.Instructions)
		if perK < 2 || perK > 40 {
			t.Errorf("%s: %.1f records per 1000 insts out of range", p.Name, perK)
		}
	}
}

func TestSkewPicker(t *testing.T) {
	sp := newSkewPicker(16, 0.8)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 16)
	for i := 0; i < 100000; i++ {
		idx := sp.pick(rng)
		if idx < 0 || idx >= 16 {
			t.Fatalf("pick out of range: %d", idx)
		}
		counts[idx]++
	}
	if counts[0] <= counts[15] {
		t.Errorf("skew not monotone: first %d last %d", counts[0], counts[15])
	}
	// theta 0: uniform-ish.
	sp = newSkewPicker(8, 0)
	counts = make([]int, 8)
	for i := 0; i < 80000; i++ {
		counts[sp.pick(rng)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("uniform pick skewed: counts[%d] = %d", i, c)
		}
	}
}

func TestMicroPointerChase(t *testing.T) {
	tr := PointerChase(1, 100, 3, 50)
	recs := tr.Records()
	if len(recs) != 300 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].DependsOnMiss {
		t.Error("first load must not be dependent")
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i].DependsOnMiss {
			t.Errorf("record %d should be dependent", i)
		}
	}
	// Ring recurs identically across laps.
	for i := 0; i < 100; i++ {
		if recs[i].Addr != recs[i+100].Addr {
			t.Error("laps must replay the same ring")
			break
		}
	}
}

func TestMicroStrided(t *testing.T) {
	tr := Strided(amo.Line(1000), 3, 10, 20)
	recs := tr.Records()
	for i := 1; i < len(recs); i++ {
		d := int64(amo.LineOf(recs[i].Addr)) - int64(amo.LineOf(recs[i-1].Addr))
		if d != 3 {
			t.Fatalf("stride %d at %d", d, i)
		}
	}
}

func TestMicroSpatialRegions(t *testing.T) {
	pattern := []int{0, 4, 9}
	tr := SpatialRegions(2, 5, 2, pattern, 30)
	recs := tr.Records()
	if len(recs) != 5*2*3 {
		t.Fatalf("len = %d", len(recs))
	}
	// All three accesses of a region visit share its 2KB region.
	for i := 0; i < len(recs); i += 3 {
		r0 := amo.RegionOf(recs[i].Addr, 2048)
		for j := 1; j < 3; j++ {
			if amo.RegionOf(recs[i+j].Addr, 2048) != r0 {
				t.Fatal("region visit crosses regions")
			}
		}
	}
}

func TestMicroEpochChain(t *testing.T) {
	tr := EpochChain(3, 10, 3, 2, 40)
	recs := tr.Records()
	if len(recs) != 10*3*2 {
		t.Fatalf("len = %d", len(recs))
	}
	// Group heads after the first are dependent; members are not.
	for i, r := range recs {
		isHead := i%3 == 0
		if isHead && i > 0 && !r.DependsOnMiss {
			t.Fatalf("head %d not dependent", i)
		}
		if !isHead && r.DependsOnMiss {
			t.Fatalf("member %d dependent", i)
		}
	}
}

func TestAlignedHeads(t *testing.T) {
	p := SPECjbb2005() // AlignFrac 0.5
	recs := drain(must(New(p)), 500000)
	aligned, heads := 0, 0
	for _, r := range recs {
		if r.Kind != trace.Load || !r.DependsOnMiss {
			continue
		}
		heads++
		if uint64(amo.LineOf(r.Addr))%128 == 0 {
			aligned++
		}
	}
	if heads == 0 {
		t.Fatal("no dependent heads")
	}
	frac := float64(aligned) / float64(heads)
	if frac < 0.1 {
		t.Errorf("aligned head fraction %.3f too low for AlignFrac %.2f", frac, p.AlignFrac)
	}
}

func TestScaled(t *testing.T) {
	p := Database()
	s := must(Scaled(p, 0.25))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Chains >= p.Chains || s.TxnTypes >= p.TxnTypes {
		t.Errorf("scaling did not shrink: %d/%d chains, %d/%d types",
			s.Chains, p.Chains, s.TxnTypes, p.TxnTypes)
	}
	if s.Name == p.Name {
		t.Error("scaled workload should be renamed")
	}
	// Floors hold at extreme factors.
	tiny := must(Scaled(p, 0.0001))
	if tiny.Chains < 200 || tiny.TxnTypes < 8 {
		t.Errorf("floors violated: %d chains, %d types", tiny.Chains, tiny.TxnTypes)
	}
	// A floor never grows a workload that is already below it.
	small := p
	small.Chains, small.TxnTypes = 100, 5
	for _, f := range []float64{0.0001, 0.5, 1} {
		if s := must(Scaled(small, f)); s.Chains > 100 || s.TxnTypes > 5 {
			t.Errorf("x%v grew 100 chains/5 types to %d/%d", f, s.Chains, s.TxnTypes)
		}
	}
	// The shipped benchmarks sit above both floors, so they scale as
	// with a plain max(v*f, floor).
	for _, b := range All() {
		for _, f := range []float64{0.0001, 0.02, 0.05, 0.25, 1} {
			s := must(Scaled(b, f))
			wantC, wantT := max(int(float64(b.Chains)*f), 200), max(int(float64(b.TxnTypes)*f), 8)
			if s.Chains != wantC || s.TxnTypes != wantT {
				t.Errorf("%s x%v: %d chains/%d types, want %d/%d", b.Name, f, s.Chains, s.TxnTypes, wantC, wantT)
			}
		}
	}
	// The scaled generator still produces a usable trace.
	st := trace.Measure(trace.NewLimit(must(New(s)), 200000))
	if st.Loads == 0 || st.IFetches == 0 {
		t.Error("scaled workload produces no accesses")
	}
	if _, err := Scaled(p, 1.5); err == nil {
		t.Error("scale factor > 1 should return an error")
	}
}

// TestStepHeadRange checks that a step's 32-bit head offset decodes
// every head the largest valid data space can produce: a stride run's
// first steps up to 14 lines below the data base (base 0, stride -2) and
// its last up to 28 lines past the top (stride 4, eight steps).
func TestStepHeadRange(t *testing.T) {
	base := amo.LineOf(dataBase)
	for _, off := range []int64{-14, -1, 0, 1, maxDataLines - 1, maxDataLines + 28} {
		head := base.Add(off)
		if got := newStep(head, 1, 0, 0, false, false).headLine(); got != head {
			t.Errorf("offset %d: head decodes to %v, want %v", off, got, head)
		}
	}
}

// TestStepPacking round-trips every field of the 8-byte step through
// its packing: the run index at both ends of its 16 bits, every load
// site, every group size (a size above 7 caps at 7) and the two flag
// bits, each set alone.
func TestStepPacking(t *testing.T) {
	head := amo.LineOf(dataBase).Add(12345)
	check := func(s step, size, pcIdx, run int, dep, branchy bool) {
		t.Helper()
		if s.headLine() != head || s.size() != size || int(s.pcIdx) != pcIdx || int(s.run) != run || s.dep() != dep || s.branchy() != branchy {
			t.Errorf("step %+v: want size %d pcIdx %d run %d dep %v branchy %v", s, size, pcIdx, run, dep, branchy)
		}
	}
	for _, run := range []int{0, 65535} {
		check(newStep(head, 1, 0, run, false, false), 1, 0, run, false, false)
	}
	for pc := range pcPool {
		check(newStep(head, 1, pc, 0, false, false), 1, pc, 0, false, false)
	}
	for size := 1; size <= 7; size++ {
		check(newStep(head, size, 0, 0, false, false), size, 0, 0, false, false)
	}
	check(newStep(head, 12, 0, 0, false, false), 7, 0, 0, false, false)
	check(newStep(head, 3, 5, 9, true, false), 3, 5, 9, true, false)
	check(newStep(head, 3, 5, 9, false, true), 3, 5, 9, false, true)
}

// TestChainLibraryLayout checks the flat chain library New leaves
// behind: the steps trimmed to their exact size, one start offset per
// chain plus the end, Branch successors per chain, every offset and
// successor in range, and a build that allocates per structure rather
// than per chain.
func TestChainLibraryLayout(t *testing.T) {
	for _, p := range All() {
		g := must(New(p))
		if len(g.steps) != cap(g.steps) {
			t.Errorf("%s: steps len %d, cap %d", p.Name, len(g.steps), cap(g.steps))
		}
		if len(g.chainStart) != p.Chains+1 || len(g.succ) != p.Chains*p.Branch {
			t.Fatalf("%s: %d chain starts, %d successors for %d chains", p.Name, len(g.chainStart), len(g.succ), p.Chains)
		}
		if g.chainStart[0] != 0 || int(g.chainStart[p.Chains]) != len(g.steps) {
			t.Errorf("%s: chain offsets span [%d, %d), steps %d", p.Name, g.chainStart[0], g.chainStart[p.Chains], len(g.steps))
		}
		for c := range p.Chains {
			if n := int(g.chainStart[c+1] - g.chainStart[c]); n < p.ChainSteps[0] || n > p.ChainSteps[1] {
				t.Fatalf("%s: chain %d has %d steps, want %v", p.Name, c, n, p.ChainSteps)
			}
		}
		for _, s := range g.succ {
			if s < 0 || int(s) >= p.Chains {
				t.Fatalf("%s: successor %d out of range", p.Name, s)
			}
		}
		if allocs := testing.AllocsPerRun(2, func() { must(New(p)) }); allocs >= 200 {
			t.Errorf("%s: New allocates %.0f objects, want under 200", p.Name, allocs)
		}
	}
}
