package prefetch

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

// chainSucc is one successor of a trigger entry, with its popularity
// count, in the entry's insertion order.
type chainSucc struct {
	Line  amo.Line
	Count uint8
}

// chainRow is one live trigger entry of a ChainTable.
type chainRow struct {
	Trigger amo.Line
	Succs   []chainSucc
}

// chainRows lists t's live entries in FIFO order (oldest first): the
// table as the differential oracle sees it.
func chainRows(t *ChainTable) []chainRow {
	rows := make([]chainRow, 0, t.n)
	for i := 0; i < t.n; i++ {
		s := i
		if t.n == t.cfg.Entries {
			s = (t.pos + i) % t.cfg.Entries
		}
		base := s * t.cfg.Successors
		n := int(t.lens[s])
		row := chainRow{Trigger: t.tags[s], Succs: make([]chainSucc, n)}
		for j := 0; j < n; j++ {
			row.Succs[j] = chainSucc{Line: t.lines[base+j], Count: t.counts[base+j]}
		}
		rows = append(rows, row)
	}
	return rows
}

// chainOracle is the naive reference model of the ChainTable: a plain
// map of successor-counter slices plus an explicit FIFO slice of live
// triggers. It mirrors the architected replacement rules — saturating
// counts, bounded lists with age-and-evict, FIFO trigger eviction —
// with none of the flat-array/ring/open-addressing machinery, so the
// differential test below checks exactly the machinery.
type chainOracle struct {
	entries, successors int
	order               []amo.Line // live triggers, oldest first
	succs               map[amo.Line][]chainSucc
}

func newChainOracle(entries, successors int) *chainOracle {
	return &chainOracle{entries: entries, successors: successors, succs: map[amo.Line][]chainSucc{}}
}

func (o *chainOracle) update(trigger, succ amo.Line) {
	list, live := o.succs[trigger]
	if !live {
		if len(o.order) == o.entries {
			oldest := o.order[0]
			o.order = o.order[1:]
			delete(o.succs, oldest)
		}
		o.order = append(o.order, trigger)
	}
	for i := range list {
		if list[i].Line == succ {
			if list[i].Count < 255 {
				list[i].Count++
			}
			o.succs[trigger] = list
			return
		}
	}
	if len(list) < o.successors {
		o.succs[trigger] = append(list, chainSucc{Line: succ, Count: 1})
		return
	}
	// Age (halve, floored at 1), evict the weakest survivor (first
	// position wins ties), append the newcomer — the table's rule.
	evict := 0
	for i := range list {
		if list[i].Count > 1 {
			list[i].Count >>= 1
		}
		if list[i].Count < list[evict].Count {
			evict = i
		}
	}
	list = append(list[:evict], list[evict+1:]...)
	o.succs[trigger] = append(list, chainSucc{Line: succ, Count: 1})
}

func (o *chainOracle) topK(trigger amo.Line, k int) []amo.Line {
	list := o.succs[trigger]
	if k > len(list) {
		k = len(list)
	}
	var out []amo.Line
	picked := make([]bool, len(list))
	for len(out) < k {
		best := -1
		for i := range list {
			if picked[i] {
				continue
			}
			if best < 0 || list[i].Count > list[best].Count {
				best = i
			}
		}
		picked[best] = true
		out = append(out, list[best].Line)
	}
	return out
}

// TestChainTableDifferential drives the flat/ring ChainTable and the
// naive oracle with the same randomized update/query stream over a
// deliberately tiny geometry (so FIFO eviction and list aging fire
// constantly) and demands identical answers everywhere: every top-K
// query, every live-set export.
func TestChainTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const entries, successors = 16, 4
	tab := must(NewChainTable(ChainTableConfig{Entries: entries, Successors: successors}))
	oracle := newChainOracle(entries, successors)

	// A line space a few times the capacity keeps both hits and
	// evictions frequent.
	line := func() amo.Line { return amo.Line(rng.Intn(5 * entries)) }

	for step := 0; step < 30000; step++ {
		trigger, succ := line(), line()
		tab.Update(trigger, succ)
		oracle.update(trigger, succ)

		q := line()
		k := 1 + rng.Intn(successors)
		got := tab.AppendTopK(nil, q, k)
		want := oracle.topK(q, k)
		if len(got) != len(want) {
			t.Fatalf("step %d: TopK(%d, %d) = %v, oracle %v", step, q, k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: TopK(%d, %d) = %v, oracle %v", step, q, k, got, want)
			}
		}
	}

	// The live sets must agree exactly, including FIFO order and the
	// per-trigger successor lists with their counts.
	rows := chainRows(tab)
	if len(rows) != len(oracle.order) {
		t.Fatalf("table holds %d rows, oracle %d", len(rows), len(oracle.order))
	}
	for i, row := range rows {
		if row.Trigger != oracle.order[i] {
			t.Fatalf("row %d trigger %d, oracle FIFO has %d", i, row.Trigger, oracle.order[i])
		}
		want := oracle.succs[row.Trigger]
		if len(row.Succs) != len(want) {
			t.Fatalf("trigger %d: %d successors, oracle %d", row.Trigger, len(row.Succs), len(want))
		}
		for j := range want {
			if row.Succs[j] != want[j] {
				t.Fatalf("trigger %d successor %d: %+v, oracle %+v", row.Trigger, j, row.Succs[j], want[j])
			}
		}
	}
}

// missFeed presents one off-chip miss to a prefetcher.
func missFeed(p Prefetcher, ctx *Context, now uint64, l amo.Line) {
	p.OnAccess(Access{Now: now, Line: l, Miss: true}, ctx)
}

func TestChainIssuesTopSuccessorsOnTriggerMiss(t *testing.T) {
	ctx := testContext()
	c := must(NewChain(ChainConfig{Entries: 1 << 10, Successors: 4, Window: 1, Degree: 2}))
	// Train the pair A→B repeatedly, A→C once: B outranks C.
	a, b, cc, d := amo.Line(10), amo.Line(20), amo.Line(30), amo.Line(40)
	for i := 0; i < 4; i++ {
		missFeed(c, ctx, uint64(100*i), a)
		missFeed(c, ctx, uint64(100*i+50), b)
	}
	missFeed(c, ctx, 1000, a)
	missFeed(c, ctx, 1050, cc)
	missFeed(c, ctx, 1100, d) // flush A out of the 1-deep window

	ctx.Buffer.Invalidate(b)
	ctx.Buffer.Invalidate(cc)
	before := ctx.Stats().Issued
	missFeed(c, ctx, 2000, a)
	if !ctx.Buffer.Contains(b) || !ctx.Buffer.Contains(cc) {
		t.Errorf("trigger miss on A should prefetch B and C (issued %d→%d)", before, ctx.Stats().Issued)
	}
}

func TestChainChainsOnPrefetchHit(t *testing.T) {
	ctx := testContext()
	c := must(NewChain(ChainConfig{Entries: 1 << 10, Successors: 4, Window: 1, Degree: 1}))
	a, b, cc := amo.Line(11), amo.Line(22), amo.Line(33)
	// Train A→B and B→C.
	for i := 0; i < 3; i++ {
		missFeed(c, ctx, uint64(1000*i), a)
		missFeed(c, ctx, uint64(1000*i+100), b)
		missFeed(c, ctx, uint64(1000*i+200), cc)
	}
	ctx.Buffer.Invalidate(cc)
	if ctx.Buffer.Contains(cc) {
		t.Fatal("C still buffered after invalidate")
	}
	// A full prefetch-buffer hit on B chains: C is issued without a miss.
	c.OnAccess(Access{Now: 10000, Line: b, PBHit: true}, ctx)
	if !ctx.Buffer.Contains(cc) {
		t.Error("prefetch hit on B should chain-issue its successor C")
	}
}

func TestChainIgnoresOnChipAccesses(t *testing.T) {
	ctx := testContext()
	c := must(NewChain(DefaultChainConfig()))
	for i := 0; i < 10; i++ {
		c.OnAccess(Access{Now: uint64(i), Line: amo.Line(i), L2Hit: true}, ctx)
		c.OnAccess(Access{Now: uint64(i), Line: amo.Line(i + 100), Miss: true, MissMerged: true}, ctx)
	}
	if st := ctx.Stats(); st.Issued != 0 || st.TableReads != 0 || st.TableWrites != 0 {
		t.Errorf("on-chip accesses caused activity: %+v", st)
	}
	if c.table.n != 0 {
		t.Errorf("on-chip accesses trained %d entries", c.table.n)
	}
}
