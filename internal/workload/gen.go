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
// overlap with it. Each step has nv alternative line groups (variants); a
// visit takes one, rolled per motif run (so a region walk stays inside
// one region). run identifies the motif run the step belongs to, so
// emission knows when to re-roll the variant.
//
// The variant line groups live in the generator's shared line arena
// (g.lineArena), addressed through spans (g.varSpans): a step holds the
// index of its first span and its variant count. This flat layout keeps
// a chain library of hundreds of thousands of steps to a handful of
// amortized-growth allocations instead of two small slices per step.
type step struct {
	varOff uint32 // index of the step's first variant span in g.varSpans
	nv     uint16 // number of variants (each span starts with the head)
	dep    bool
	run    int32
	// pcIdx selects the load PC (and thereby the record layout) of the
	// step within the transaction type's PC pool: the code site
	// determines the record layout, which is what PC-indexed prefetchers
	// (SMS, GHB PC/DC) key on.
	pcIdx uint16
}

// lineSpan is one variant's line group inside the generator's line arena.
type lineSpan struct {
	off uint32
	n   uint16
}

// pcPool is the number of distinct load sites per transaction type.
const pcPool = 16

// chainDef is a fixed, recurring sequence of steps with mostly
// deterministic succession.
type chainDef struct {
	steps []step
	succ  []int // succ[0] is the primary successor
}

// txnType is one transaction type: a recurring code path over its own
// instruction lines, an entry set of chains, and its load/store PC pool.
type txnType struct {
	codePath []amo.Line
	chainSet []int
	headPCs  [pcPool]amo.PC
	storePC  amo.PC
}

// Generator produces an endless condensed trace for one workload. It
// implements trace.Source and is fully deterministic for a given Params.
type Generator struct {
	p   Params
	rng *rand.Rand

	chains   []chainDef
	types    []txnType
	typePick *skewPicker
	layouts  [][]int // sibling line-offset deltas within a region

	// Flat step storage: every variant's line group is a span of
	// lineArena; steps reference contiguous runs of varSpans.
	lineArena []amo.Line
	varSpans  []lineSpan

	// Emission queue and steady-state scratch buffers (reused so the
	// endless stream allocates nothing after the first few steps).
	queue    []trace.Record
	qpos     int
	noiseBuf []amo.Line
	coldBuf  []amo.Line

	// Transaction state.
	t          *txnType
	chainsLeft int
	chain      int
	stepIdx    int
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
		// Pre-size the step arena near its final size so chain
		// construction doesn't repeatedly double-and-copy it, without
		// zeroing much it never uses: the shipped benchmarks take 1.7-3.6
		// lines and 1.3-1.6 variant spans per step, so reserve 4 lines
		// and 2 spans per step of the mean chain length.
		lineArena: make([]amo.Line, 0, 2*(p.ChainSteps[0]+p.ChainSteps[1])*p.Chains),
		varSpans:  make([]lineSpan, 0, (p.ChainSteps[0]+p.ChainSteps[1])*p.Chains),
		queue:     make([]trace.Record, 0, 64),
	}
	g.buildLayouts()
	g.buildChains()
	g.buildTypes()
	g.typePick = newSkewPicker(p.TxnTypes, p.ZipfTheta)
	g.beginTxn()
	return g, nil
}

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

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
	g.chains = make([]chainDef, p.Chains)
	for ci := range g.chains {
		n := g.between(p.ChainSteps)
		steps := make([]step, 0, n)
		run := 0
		for len(steps) < n {
			r := g.rng.Float64()
			switch {
			case r < p.WalkFrac:
				steps = g.appendWalk(steps, n, run)
			case r < p.WalkFrac+p.StrideFrac:
				steps = g.appendStride(steps, n, run)
			default:
				steps = append(steps, g.scatteredStep(len(steps) > 0, run))
			}
			run++
		}
		succ := make([]int, p.Branch)
		for k := range succ {
			succ[k] = g.rng.Intn(p.Chains)
		}
		g.chains[ci] = chainDef{steps: steps, succ: succ}
	}
	// Make the primary successor relation a permutation: every chain has
	// in-degree one under deterministic succession, so the stationary
	// visit distribution stays near-uniform and reuse distances stay far
	// beyond the L2 (a random mapping would concentrate visits on a small
	// attractor core, which the L2 would then capture).
	perm := g.rng.Perm(p.Chains)
	for ci := range g.chains {
		g.chains[ci].succ[0] = perm[ci]
	}
}

// siblingsSpan appends head plus layout-determined sibling lines in
// head's 2KB region to the line arena and returns their span, choosing
// count offsets starting from the layout position sel (different sel
// values model different field/subobject access paths through the same
// record — the spatial correlation SMS exploits, and the data-dependent
// divergence that bounds prefetcher accuracy). The layout is selected by
// the accessing code site (pcIdx), which is what makes trigger-PC-indexed
// pattern prediction possible.
func (g *Generator) siblingsSpan(head amo.Line, pcIdx, sel, count int) lineSpan {
	off := len(g.lineArena)
	g.lineArena = append(g.lineArena, head)
	layout := g.layouts[pcIdx%len(g.layouts)]
	regionFirst := head - amo.Line(uint64(head)%linesPerRegion)
	headOff := int(uint64(head) % linesPerRegion)
	for j := 0; len(g.lineArena)-off < count+1 && j < len(layout); j++ {
		o := (headOff + layout[(sel+j)%len(layout)]) % linesPerRegion
		sib := regionFirst + amo.Line(o)
		if sib != head {
			dup := false
			for _, l := range g.lineArena[off:] {
				if l == sib {
					dup = true
					break
				}
			}
			if !dup {
				g.lineArena = append(g.lineArena, sib)
			}
		}
	}
	return lineSpan{off: uint32(off), n: uint16(len(g.lineArena) - off)}
}

// singleSpan appends one line to the arena as a one-line variant span.
func (g *Generator) singleSpan(line amo.Line) lineSpan {
	off := len(g.lineArena)
	g.lineArena = append(g.lineArena, line)
	return lineSpan{off: uint32(off), n: 1}
}

// spanLines resolves a variant span to its lines in the arena.
//
//ebcp:hotpath
func (g *Generator) spanLines(sp lineSpan) []amo.Line {
	return g.lineArena[sp.off : uint32(sp.off)+uint32(sp.n)]
}

// scatteredStep is a pointer-chased record fetch. The head line (the
// record pointer, reached by the chase) is the same on every visit — it
// is the stable correlation key — but the sibling lines differ per
// variant: each visit walks a different data-dependent path through the
// record's fields. A CommonFrac share of steps are branch-free (single
// variant).
func (g *Generator) scatteredStep(dep bool, run int) step {
	size := g.between(g.p.GroupSize)
	nv := g.p.Variants
	if size <= 1 || g.rng.Float64() < g.p.CommonFrac {
		nv = 1
	}
	head := g.randDataLine()
	if g.rng.Float64() < g.p.AlignFrac {
		// Slab/page-aligned header: 8KB-aligned heads all map to the same
		// L1 set, giving the per-set tag streams the recurrence TCP needs.
		head -= amo.Line(uint64(head) % 128)
	}
	pcIdx := g.rng.Intn(pcPool)
	varOff := uint32(len(g.varSpans))
	for v := 0; v < nv; v++ {
		g.varSpans = append(g.varSpans, g.siblingsSpan(head, pcIdx, v*2, size-1))
	}
	return step{varOff: varOff, nv: uint16(nv), dep: dep, run: int32(run), pcIdx: uint16(pcIdx)}
}

// appendWalk adds a run of steps inside one 2KB region (an index-leaf
// scan): consecutive heads in the same region, chained by dependence.
// Walks are deterministic (a page scan revisits the same lines).
func (g *Generator) appendWalk(steps []step, limit, run int) []step {
	// The scan geometry is a property of the scanning code site: a given
	// loop walks its pages with a fixed stride and length (this is the
	// regularity Spatial Memory Streaming's PC+offset-indexed patterns
	// rely on).
	pcIdx := g.rng.Intn(pcPool)
	k := 3 + pcIdx%4 // 3..6 steps
	if rem := limit - len(steps); k > rem {
		k = rem
	}
	// A scan enters its page at the code-determined header offset and
	// walks with the code-determined stride.
	head := g.randDataLine()
	regionFirst := head - amo.Line(uint64(head)%linesPerRegion)
	off := (pcIdx * 5) % linesPerRegion
	stride := 1 + pcIdx%3
	for i := 0; i < k; i++ {
		line := regionFirst + amo.Line((off+i*stride)%linesPerRegion)
		varOff := uint32(len(g.varSpans))
		g.varSpans = append(g.varSpans, g.singleSpan(line))
		steps = append(steps, step{
			varOff: varOff,
			nv:     1,
			dep:    len(steps) > 0 || i > 0,
			run:    int32(run),
			pcIdx:  uint16(pcIdx),
		})
	}
	return steps
}

// appendStride adds a strided run: independent heads at a fixed line
// stride (the regular fraction a stream prefetcher can catch).
func (g *Generator) appendStride(steps []step, limit, run int) []step {
	k := 4 + g.rng.Intn(5) // 4..8 steps
	if rem := limit - len(steps); k > rem {
		k = rem
	}
	strides := []int64{1, 2, 3, 4, -1, -2}
	base := g.randDataLine()
	stride := strides[g.rng.Intn(len(strides))]
	pcIdx := g.rng.Intn(pcPool)
	for i := 0; i < k; i++ {
		// The first access of the run is pointer-derived; the rest are
		// address arithmetic and overlap freely.
		varOff := uint32(len(g.varSpans))
		g.varSpans = append(g.varSpans, g.singleSpan(base.Add(stride*int64(i))))
		steps = append(steps, step{
			varOff: varOff,
			nv:     1,
			dep:    i == 0 && len(steps) > 0,
			run:    int32(run),
			pcIdx:  uint16(pcIdx),
		})
	}
	return steps
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
		set := make([]int, perType)
		for i := range set {
			set[i] = g.rng.Intn(p.Chains)
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
	g.chain = g.t.chainSet[g.rng.Intn(len(g.t.chainSet))]
	g.stepIdx = 0
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
	if g.stepIdx >= len(g.chains[g.chain].steps) {
		// Chain finished: follow the successor graph or end the txn.
		g.chainsLeft--
		if g.chainsLeft <= 0 {
			g.beginTxn()
		} else {
			c := &g.chains[g.chain]
			if g.rng.Float64() < g.p.PFollow {
				g.chain = c.succ[0]
			} else {
				g.chain = c.succ[g.rng.Intn(len(c.succ))]
			}
			g.stepIdx = 0
		}
	}
	st := g.chains[g.chain].steps[g.stepIdx]
	g.stepIdx++

	p := g.p

	// Variant and noise are rolled once per motif run: a data-dependent
	// branch picks which alternative group the visit dereferences, and
	// with NoiseFrac probability the run touches fresh never-recurring
	// lines instead (churn, cold data).
	if g.chain != g.runChain || int(st.run) != g.runID {
		g.runChain, g.runID = g.chain, int(st.run)
		g.runVariant = g.rng.Intn(int(st.nv))
		g.runNoise = g.rng.Float64() < p.NoiseFrac
	}
	lines := g.spanLines(g.varSpans[st.varOff+uint32(g.runVariant%int(st.nv))])
	if g.runNoise {
		g.noiseBuf = g.noiseBuf[:0]
		for range lines {
			g.noiseBuf = append(g.noiseBuf, g.randDataLine()) //ebcp:allow hotpathalloc amortized: noiseBuf is [:0]-reset and reused, capped at the widest span
		}
		lines = g.noiseBuf
	}
	if g.rng.Float64() < p.ColdExtra {
		// A freshly allocated line joins the step's group: it overlaps
		// with the head but never recurs.
		g.coldBuf = append(g.coldBuf[:0], lines...) //ebcp:allow hotpathalloc amortized: coldBuf is [:0]-reset and reused, capped at the widest span plus one (this allow covers the next line too)
		g.coldBuf = append(g.coldBuf, g.randDataLine())
		lines = g.coldBuf
	}
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
	dep := st.dep && !g.firstStep
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
