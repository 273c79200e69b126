package workload

import (
	"math/rand"

	"ebcp/internal/amo"
	"ebcp/internal/trace"
)

// Address-space bases keep instruction and data footprints disjoint.
const (
	codeBase       amo.Addr = 0x0000_4000_0000 // 1GB: instruction footprint
	dataBase       amo.Addr = 0x0010_0000_0000 // 64GB: data footprint
	pcBase         amo.PC   = 0x0000_7000_0000 // synthetic load/store PCs
	regionBytes             = 2048             // spatial region size (matches SMS)
	linesPerRegion          = regionBytes / amo.LineSize
)

// step is one data step of a chain: a head line (optionally dependent on
// the previous step's head — pointer chasing) plus sibling lines that
// overlap with it. A branchy step has Params.Variants alternative line
// groups (variants), any other step one; a visit takes one, rolled per
// motif run (so a region walk stays inside one region). run identifies
// the motif run the step belongs to, so emission knows when to re-roll
// the variant.
//
// A variant's lines are a pure function of the head, the load site, the
// variant index and the group size (see siblings), so a step stores only
// those and emission recomputes the chosen variant: 8 bytes per step.
type step struct {
	head int32  // head line minus amo.LineOf(dataBase); a stride run may start below it
	run  uint16 // Params.Validate bounds ChainSteps so a chain's runs fit
	// pcIdx selects the load PC (and thereby the record layout) of the
	// step within the transaction type's PC pool: the code site
	// determines the record layout, which is what PC-indexed prefetchers
	// (SMS, GHB PC/DC) key on.
	pcIdx uint8
	// flags: the group size (head plus siblings) capped at 7 in the low
	// bits (siblings stops after 1+len(layout) <= 7 lines, so the cap
	// never binds), then stepDep and stepBranchy.
	flags uint8
}

const (
	stepSizeMask = 7
	stepDep      = 1 << 3 // the head depends on the previous step's head
	stepBranchy  = 1 << 4 // the step has Params.Variants variants, not one
)

// newStep packs a step; head is an absolute data line.
func newStep(head amo.Line, size, pcIdx, run int, dep, branchy bool) step {
	s := step{run: uint16(run), pcIdx: uint8(pcIdx), flags: uint8(min(size, stepSizeMask))}
	s.head = int32(int64(head) - int64(amo.LineOf(dataBase)))
	if dep {
		s.flags |= stepDep
	}
	if branchy {
		s.flags |= stepBranchy
	}
	return s
}

// headLine decodes the step's head line.
//
//ebcp:hotpath
func (s step) headLine() amo.Line { return amo.LineOf(dataBase).Add(int64(s.head)) }

func (s step) size() int     { return int(s.flags & stepSizeMask) }
func (s step) dep() bool     { return s.flags&stepDep != 0 }
func (s step) branchy() bool { return s.flags&stepBranchy != 0 }

// pcPool is the number of distinct load sites per transaction type.
const pcPool = 16

// txnType is one transaction type: a recurring code path over its own
// instruction lines, an entry set of chains, and its load/store PC pool.
type txnType struct {
	codePath []amo.Line
	chainSet []int32
	headPCs  [pcPool]amo.PC
	storePC  amo.PC
}

// Generator produces an endless condensed trace for one workload. It
// implements trace.Source and is fully deterministic for a given Params.
type Generator struct {
	p   Params
	rng *rand.Rand

	// The chain library: chain c is steps[chainStart[c]:chainStart[c+1]],
	// and its Branch successors are succ[c*Branch:], the primary first.
	steps      []step
	chainStart []int32
	succ       []int32

	types    []txnType
	typePick *skewPicker
	layouts  [][]int // sibling line-offset deltas within a region

	// Emission queue and the visited step's line group, both reused so
	// the endless stream allocates nothing after the first few steps.
	queue []trace.Record
	qpos  int
	lines []amo.Line

	// Transaction state.
	t          *txnType
	chainsLeft int
	chain      int
	stepIdx    int // index into steps
	codePos    int
	firstStep  bool
	pendingGap uint64

	// Variant/noise roll state, per motif run.
	runChain   int
	runID      int
	runVariant int
	runNoise   bool

	// Serialization and hot-reuse state.
	stepsSinceSer int
	hotRing       []amo.Line
	hotLen        int
	hotPos        int
}

var _ trace.BatchSource = (*Generator)(nil)

// New builds a generator. It returns an ErrInvalidConfig-classified
// error if the parameters fail Validate.
func New(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:       p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		hotRing: make([]amo.Line, 2048),
		queue:   make([]trace.Record, 0, 64),
	}
	g.buildLayouts()
	g.buildChains()
	g.buildTypes()
	g.typePick = newSkewPicker(p.TxnTypes, p.ZipfTheta)
	g.beginTxn()
	return g, nil
}

//ebcp:hotpath
func (g *Generator) between(b [2]int) int {
	if b[1] == b[0] {
		return b[0]
	}
	return b[0] + g.rng.Intn(b[1]-b[0]+1)
}

// randDataLine picks a line uniformly in the data space.
//
//ebcp:hotpath
func (g *Generator) randDataLine() amo.Line {
	return amo.LineOf(dataBase) + amo.Line(g.rng.Int63n(int64(g.p.DataLines)))
}

func (g *Generator) buildLayouts() {
	g.layouts = make([][]int, g.p.Layouts)
	for i := range g.layouts {
		n := 3 + g.rng.Intn(4) // 3..6 candidate sibling offsets
		deltas := make([]int, n)
		for j := range deltas {
			deltas[j] = 1 + g.rng.Intn(linesPerRegion-1)
		}
		g.layouts[i] = deltas
	}
}

// buildChains constructs the chain library from the three step motifs.
func (g *Generator) buildChains() {
	p := g.p
	g.chainStart = make([]int32, p.Chains+1)
	g.succ = make([]int32, p.Chains*p.Branch)
	g.steps = make([]step, 0, p.Chains*p.ChainSteps[1])
	for ci := range p.Chains {
		start := len(g.steps)
		end := start + g.between(p.ChainSteps)
		run := 0
		for len(g.steps) < end {
			r := g.rng.Float64()
			switch {
			case r < p.WalkFrac:
				g.appendWalk(start, end, run)
			case r < p.WalkFrac+p.StrideFrac:
				g.appendStride(start, end, run)
			default:
				g.steps = append(g.steps, g.scatteredStep(len(g.steps) > start, run))
			}
			run++
		}
		g.chainStart[ci+1] = int32(end)
		for k := range p.Branch {
			g.succ[ci*p.Branch+k] = int32(g.rng.Intn(p.Chains))
		}
	}
	// Trim the steps to their exact size: the spare capacity of a slice
	// sized for the longest possible library would stay live with it.
	g.steps = append(make([]step, 0, len(g.steps)), g.steps...)
	// Make the primary successor relation a permutation: every chain has
	// in-degree one under deterministic succession, so the stationary
	// visit distribution stays near-uniform and reuse distances stay far
	// beyond the L2 (a random mapping would concentrate visits on a small
	// attractor core, which the L2 would then capture).
	for ci, next := range g.rng.Perm(p.Chains) {
		g.succ[ci*p.Branch] = int32(next)
	}
}

// siblings appends head plus layout-determined sibling lines in head's
// 2KB region to dst, choosing count offsets starting from the layout
// position sel (different sel values model different field/subobject
// access paths through the same record — the spatial correlation SMS
// exploits, and the data-dependent divergence that bounds prefetcher
// accuracy). The layout is selected by the accessing code site (pcIdx),
// which is what makes trigger-PC-indexed pattern prediction possible.
// With count 0 the group is the head alone.
//
//ebcp:hotpath
func (g *Generator) siblings(dst []amo.Line, head amo.Line, pcIdx, sel, count int) []amo.Line {
	off := len(dst)
	dst = append(dst, head)
	layout := g.layouts[pcIdx%len(g.layouts)]
	regionFirst := head - amo.Line(uint64(head)%linesPerRegion)
	headOff := int(uint64(head) % linesPerRegion)
	for j := 0; len(dst)-off < count+1 && j < len(layout); j++ {
		o := (headOff + layout[(sel+j)%len(layout)]) % linesPerRegion
		sib := regionFirst + amo.Line(o)
		if sib != head {
			dup := false
			for _, l := range dst[off:] {
				if l == sib {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, sib)
			}
		}
	}
	return dst
}

// scatteredStep is a pointer-chased record fetch. The head line (the
// record pointer, reached by the chase) is the same on every visit — it
// is the stable correlation key — but the sibling lines differ per
// variant: each visit walks a different data-dependent path through the
// record's fields. A CommonFrac share of steps are branch-free (single
// variant).
func (g *Generator) scatteredStep(dep bool, run int) step {
	size := g.between(g.p.GroupSize)
	branchy := size > 1 && g.rng.Float64() >= g.p.CommonFrac
	head := g.randDataLine()
	if g.rng.Float64() < g.p.AlignFrac {
		// Slab/page-aligned header: 8KB-aligned heads all map to the same
		// L1 set, giving the per-set tag streams the recurrence TCP needs.
		head -= amo.Line(uint64(head) % 128)
	}
	pcIdx := g.rng.Intn(pcPool)
	return newStep(head, size, pcIdx, run, dep, branchy)
}

// appendWalk adds a run of steps inside one 2KB region (an index-leaf
// scan): consecutive heads in the same region, chained by dependence.
// Walks are deterministic (a page scan revisits the same lines). The
// current chain spans steps[start:end].
func (g *Generator) appendWalk(start, end, run int) {
	// The scan geometry is a property of the scanning code site: a given
	// loop walks its pages with a fixed stride and length (this is the
	// regularity Spatial Memory Streaming's PC+offset-indexed patterns
	// rely on).
	pcIdx := g.rng.Intn(pcPool)
	k := min(3+pcIdx%4, end-len(g.steps)) // 3..6 steps
	// A scan enters its page at the code-determined header offset and
	// walks with the code-determined stride.
	head := g.randDataLine()
	regionFirst := head - amo.Line(uint64(head)%linesPerRegion)
	off := (pcIdx * 5) % linesPerRegion
	stride := 1 + pcIdx%3
	for i := 0; i < k; i++ {
		line := regionFirst + amo.Line((off+i*stride)%linesPerRegion)
		g.steps = append(g.steps, newStep(line, 1, pcIdx, run, len(g.steps) > start, false))
	}
}

// appendStride adds a strided run: independent heads at a fixed line
// stride (the regular fraction a stream prefetcher can catch). The
// current chain spans steps[start:end].
func (g *Generator) appendStride(start, end, run int) {
	k := min(4+g.rng.Intn(5), end-len(g.steps)) // 4..8 steps
	strides := []int64{1, 2, 3, 4, -1, -2}
	base := g.randDataLine()
	stride := strides[g.rng.Intn(len(strides))]
	pcIdx := g.rng.Intn(pcPool)
	for i := 0; i < k; i++ {
		// The first access of the run is pointer-derived; the rest are
		// address arithmetic and overlap freely.
		g.steps = append(g.steps, newStep(base.Add(stride*int64(i)), 1, pcIdx, run, i == 0 && len(g.steps) > start, false))
	}
}

func (g *Generator) buildTypes() {
	p := g.p
	g.types = make([]txnType, p.TxnTypes)
	perType := p.Chains / p.TxnTypes * 2
	if perType < 4 {
		perType = 4
	}
	for ti := range g.types {
		base := codeBase + amo.Addr(ti*p.CodeLinesPerType*amo.LineSize)
		path := make([]amo.Line, p.PathBlocks)
		for i := range path {
			path[i] = amo.LineOf(base + amo.Addr(g.rng.Intn(p.CodeLinesPerType)*amo.LineSize))
		}
		set := make([]int32, perType)
		for i := range set {
			set[i] = int32(g.rng.Intn(p.Chains))
		}
		tt := txnType{
			codePath: path,
			chainSet: set,
			storePC:  pcBase + amo.PC(ti*1024+pcPool*32),
		}
		for i := range tt.headPCs {
			tt.headPCs[i] = pcBase + amo.PC(ti*1024+i*32)
		}
		g.types[ti] = tt
	}
}

// beginTxn starts a new transaction: a type, an entry chain and a fresh
// walk of the type's code path.
func (g *Generator) beginTxn() {
	ti := g.typePick.pick(g.rng)
	g.t = &g.types[ti]
	g.chainsLeft = g.between(g.p.ChainsPerTxn)
	g.chain = int(g.t.chainSet[g.rng.Intn(len(g.t.chainSet))])
	g.stepIdx = int(g.chainStart[g.chain])
	g.codePos = 0
	g.firstStep = true
	g.runChain = -1
	g.pendingGap += uint64(g.between(g.p.TxnGap))
}

// Next implements trace.Source. The stream is endless.
//
//ebcp:hotpath
func (g *Generator) Next() (trace.Record, bool) {
	for g.qpos >= len(g.queue) {
		g.queue = g.queue[:0]
		g.qpos = 0
		g.synthStep()
	}
	r := g.queue[g.qpos]
	g.qpos++
	return r, true
}

// ReadBatch implements trace.BatchSource, filling dst directly from the
// emission queue and running the step state machine whenever the queue
// drains. The stream is endless, so dst is always filled completely.
//
//ebcp:hotpath
func (g *Generator) ReadBatch(dst []trace.Record) int {
	n := 0
	for n < len(dst) {
		if g.qpos >= len(g.queue) {
			g.queue = g.queue[:0]
			g.qpos = 0
			g.synthStep()
		}
		c := copy(dst[n:], g.queue[g.qpos:])
		g.qpos += c
		n += c
	}
	return n
}

//ebcp:hotpath
func (g *Generator) push(r trace.Record) {
	r.Gap += uint32(g.pendingGap)
	g.pendingGap = 0
	g.queue = append(g.queue, r) //ebcp:allow hotpathalloc amortized: the queue is drained via qpos and reused; it stops growing once it reaches the longest step
}

// synthStep emits the records of the next data step, advancing the
// chain/transaction state machine.
//
//ebcp:hotpath
func (g *Generator) synthStep() {
	p := g.p
	if g.stepIdx >= int(g.chainStart[g.chain+1]) {
		// Chain finished: follow the successor graph or end the txn.
		g.chainsLeft--
		if g.chainsLeft <= 0 {
			g.beginTxn()
		} else {
			k := 0
			if g.rng.Float64() >= p.PFollow {
				k = g.rng.Intn(p.Branch)
			}
			g.chain = int(g.succ[g.chain*p.Branch+k])
			g.stepIdx = int(g.chainStart[g.chain])
		}
	}
	st := g.steps[g.stepIdx]
	g.stepIdx++

	// Variant and noise are rolled once per motif run: a data-dependent
	// branch picks which alternative group the visit dereferences, and
	// with NoiseFrac probability the run touches fresh never-recurring
	// lines instead (churn, cold data).
	nv := 1
	if st.branchy() {
		nv = p.Variants
	}
	if g.chain != g.runChain || int(st.run) != g.runID {
		g.runChain, g.runID = g.chain, int(st.run)
		g.runVariant = g.rng.Intn(nv)
		g.runNoise = g.rng.Float64() < p.NoiseFrac
	}
	// Variant v walks the record's layout from position 2v.
	g.lines = g.siblings(g.lines[:0], st.headLine(), int(st.pcIdx), 2*(g.runVariant%nv), st.size()-1)
	if g.runNoise {
		for i := range g.lines {
			g.lines[i] = g.randDataLine()
		}
	}
	if g.rng.Float64() < p.ColdExtra {
		// A freshly allocated line joins the step's group: it overlaps
		// with the head but never recurs.
		g.lines = append(g.lines, g.randDataLine()) //ebcp:allow hotpathalloc amortized: lines is [:0]-reset and reused, capped at the widest group plus one
	}
	lines := g.lines
	stepInsts := g.between(p.InstsPerStep)
	nb := g.between(p.BlocksPerStep)
	share := stepInsts / (nb + 1)
	if share < 1 {
		share = 1
	}

	serialize := false
	if p.SerializeEvery > 0 {
		g.stepsSinceSer++
		if g.stepsSinceSer >= p.SerializeEvery {
			g.stepsSinceSer = 0
			serialize = true
		}
	}

	// Code blocks execute before the data dereference. Data-dependent
	// branches occasionally jump to a different part of the type's path.
	if p.CodeJump > 0 && g.rng.Float64() < p.CodeJump {
		g.codePos = g.rng.Intn(len(g.t.codePath))
	}
	for b := 0; b < nb; b++ {
		line := g.t.codePath[g.codePos%len(g.t.codePath)]
		g.codePos++
		g.push(trace.Record{
			Gap:         uint32(share - 1),
			Kind:        trace.IFetch,
			Addr:        line.Addr(),
			PC:          amo.PC(line.Addr()),
			Serializing: serialize && b == 0,
		})
	}

	// Head load (the epoch trigger when it misses).
	dep := st.dep() && !g.firstStep
	g.firstStep = false
	headGap := stepInsts - share*nb
	if headGap < 1 {
		headGap = 1
	}
	// A mispredicted branch dependent on the step's data terminates the
	// window right after the group issues (the paper's dominant window
	// termination condition for commercial workloads).
	breaks := g.rng.Float64() < p.BranchBreak
	headPC := g.t.headPCs[st.pcIdx]
	g.push(trace.Record{
		Gap:           uint32(headGap - 1),
		Kind:          trace.Load,
		Addr:          lines[0].Addr(),
		PC:            headPC,
		DependsOnMiss: dep,
		BreaksWindow:  breaks && len(lines) == 1,
	})
	g.noteHot(lines[0])

	// Sibling loads overlap with the head; they issue from the field
	// accessors next to the head's load site.
	for i, sib := range lines[1:] {
		g.push(trace.Record{
			Gap:          uint32(1 + g.rng.Intn(6)),
			Kind:         trace.Load,
			Addr:         sib.Addr(),
			PC:           headPC + 8,
			BreaksWindow: breaks && i == len(lines)-2,
		})
		g.noteHot(sib)
	}

	// Occasional store to the record's region (write bandwidth).
	if g.rng.Float64() < p.StoreFrac {
		head := lines[0]
		regionFirst := head - amo.Line(uint64(head)%linesPerRegion)
		line := regionFirst + amo.Line(g.rng.Intn(linesPerRegion))
		g.push(trace.Record{
			Gap:  uint32(1 + g.rng.Intn(6)),
			Kind: trace.Store,
			Addr: line.Addr(),
			PC:   g.t.storePC,
		})
	}

	// Occasional revisit of a recently-touched line (an on-chip hit).
	if g.hotLen > 16 && g.rng.Float64() < p.HotFrac {
		line := g.hotRing[g.rng.Intn(g.hotLen)]
		g.push(trace.Record{
			Gap:  uint32(1 + g.rng.Intn(6)),
			Kind: trace.Load,
			Addr: line.Addr(),
			PC:   g.t.headPCs[st.pcIdx] + 16,
		})
	}
}

//ebcp:hotpath
func (g *Generator) noteHot(l amo.Line) {
	g.hotRing[g.hotPos] = l
	g.hotPos = (g.hotPos + 1) % len(g.hotRing)
	if g.hotLen < len(g.hotRing) {
		g.hotLen++
	}
}
