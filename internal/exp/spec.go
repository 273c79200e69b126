// The spec compiler: FromSpec turns a declarative ebcp.spec/v1
// document (internal/spec) into a runnable Experiment. The canonical
// experiments are committed spec files under specs/, embedded and
// compiled once; TestCanonicalGoldens proves the compiled form renders
// byte-identically to the original hardcoded constructors.
package exp

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/registry"
	"ebcp/internal/sim"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// FromSpec compiles a spec into an Experiment. Registry names (cell
// prefetchers, restricted benchmarks) resolve here, so an unknown name
// fails before anything simulates; the spec's own shape rules are
// checked by spec.Decode/Validate. All errors match
// ebcperr.ErrInvalidConfig.
func FromSpec(sp spec.SpecV1) (Experiment, error) {
	c, err := compileSpec(sp)
	if err != nil {
		return Experiment{}, err
	}
	return Experiment{ID: sp.ID, Title: sp.Title, Run: c.run}, nil
}

// compiledSpec is a spec with its registry references resolved.
type compiledSpec struct {
	sp      spec.SpecV1
	pfs     map[string]registry.PrefetcherEntry // cell name → contender
	benches []workload.Params                   // sp.Benchmarks resolved; nil = session default
}

func compileSpec(sp spec.SpecV1) (*compiledSpec, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	c := &compiledSpec{sp: sp, pfs: make(map[string]registry.PrefetcherEntry, len(sp.Cells))}
	names := make([]string, 0, len(sp.Cells))
	for name := range sp.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e, err := registry.Prefetcher(sp.Cells[name].Prefetcher.Name)
		if err != nil {
			return nil, ebcperr.Invalidf("spec %q: cell %q: %v", sp.ID, name, err)
		}
		c.pfs[name] = e
	}
	for _, bn := range sp.Benchmarks {
		b, err := workload.ByName(bn)
		if err != nil {
			return nil, ebcperr.Invalidf("spec %q: %v", sp.ID, err)
		}
		c.benches = append(c.benches, b)
	}
	return c, nil
}

// benchmarks resolves the workload set for one run: the session's
// override (tests and the daemon's bench_scale use it) wins, then the
// spec's restriction, then the paper's four benchmarks.
func (c *compiledSpec) benchmarks(s *Session) []workload.Params {
	if s.opts.Benchmarks != nil {
		return s.opts.Benchmarks
	}
	if c.benches != nil {
		return c.benches
	}
	return workload.All()
}

// referencedCells returns every cell the rows read, baselines first, in
// first-reference order — the plan the simulate phase schedules per
// benchmark. Cells declared but never referenced are not simulated.
func (c *compiledSpec) referencedCells() []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if n != "" && !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, g := range c.sp.Rows {
		for _, r := range g.Rows {
			for _, n := range r.Cells {
				add(c.sp.Cells[n].Baseline)
				add(n)
			}
		}
	}
	return names
}

// expandBench instantiates a key or label template for one workload.
func expandBench(tpl, bench string) string {
	return strings.ReplaceAll(tpl, spec.BenchPlaceholder, bench)
}

// req instantiates a cell template for one benchmark.
func (c *compiledSpec) req(name string, b workload.Params) cellReq {
	cell := c.sp.Cells[name]
	entry := c.pfs[name]
	params := cell.Prefetcher.Params
	r := cellReq{
		key:   expandBench(cell.Key, b.Name),
		bench: b,
		cores: cell.Cores,
		pf: func() (prefetch.Prefetcher, error) {
			p, err := entry.New(params, cell.Cores)
			if err != nil {
				return nil, err
			}
			return registry.WrapFilter(p, cell.Prefetcher.Filter)
		},
	}
	if cell.Sim != nil {
		tw := *cell.Sim
		r.mut = func(cfg *sim.Config) {
			if tw.PBEntries != 0 {
				cfg.PBEntries = tw.PBEntries
			}
			if tw.ReadGBps != 0 {
				cfg.Mem.ReadGBps = tw.ReadGBps
			}
			if tw.WriteGBps != 0 {
				cfg.Mem.WriteGBps = tw.WriteGBps
			}
		}
	}
	return r
}

// plan lists the run's cells, per benchmark in referencedCells order,
// once per cell key.
func (c *compiledSpec) plan(benches []workload.Params) []cellReq {
	var reqs []cellReq
	seen := map[string]bool{}
	names := c.referencedCells()
	for _, b := range benches {
		for _, n := range names {
			if r := c.req(n, b); !seen[r.key] {
				seen[r.key] = true
				reqs = append(reqs, r)
			}
		}
	}
	return reqs
}

// run executes the compiled spec: resolve the planned grid through the
// session's store on its worker pool, then collect rows in spec order
// from the run's own results — the same two-phase shape the hardcoded
// constructors had, so reports stay byte-identical for any worker
// count.
func (c *compiledSpec) run(s *Session) *Report {
	sp := c.sp
	benches := c.benchmarks(s)
	rep := &Report{
		ID:    sp.ID,
		Title: sp.Report.Title,
		Unit:  sp.Report.Unit,
		Notes: sp.Report.Notes,
	}
	if sp.Columns.Benchmarks {
		for _, b := range benches {
			rep.Columns = append(rep.Columns, b.Name)
		}
	} else {
		rep.Columns = append([]string(nil), sp.Columns.Labels...)
	}
	for _, ref := range sp.Report.Reference {
		rep.Reference = append(rep.Reference, Row{Label: ref.Label, Values: append([]float64(nil), ref.Values...)})
	}

	plan := c.plan(benches)
	outs := make([]*outcome, len(plan))
	s.forEach(len(plan), func(i int) { outs[i] = s.resolve(plan[i]) })
	tab := make(cellTable, len(plan))
	for i, r := range plan {
		tab[r.key] = outs[i]
	}

	for _, g := range sp.Rows {
		if g.PerBenchmark {
			for _, gb := range benches {
				for _, r := range g.Rows {
					rep.Rows = append(rep.Rows, c.collectRow(tab, r, gb, benches))
				}
			}
			continue
		}
		for _, r := range g.Rows {
			rep.Rows = append(rep.Rows, c.collectRow(tab, r, workload.Params{}, benches))
		}
	}
	return rep
}

// cellTable is one run's resolved cells, by cell key.
type cellTable map[string]*outcome

// cell returns one instantiated cell's outcome.
func (c *compiledSpec) cell(tab cellTable, name string, b workload.Params) *outcome {
	return tab[expandBench(c.sp.Cells[name].Key, b.Name)]
}

// collectRow builds one report row. With benchmark columns the row's
// single cell template instantiates once per workload column; with
// explicit columns the row's cells map one-to-one onto columns under
// the group's benchmark gb.
func (c *compiledSpec) collectRow(tab cellTable, r spec.RowV1, gb workload.Params, benches []workload.Params) Row {
	row := Row{Label: expandBench(r.Label, gb.Name)}
	if c.sp.Columns.Benchmarks {
		for _, cb := range benches {
			row.Values = append(row.Values, c.value(tab, r.Metric, r.Cells[0], cb))
		}
		return row
	}
	for _, cn := range r.Cells {
		row.Values = append(row.Values, c.value(tab, r.Metric, cn, gb))
	}
	return row
}

// value computes one metric for one instantiated cell, folding the
// cell's (and, for relative metrics, its baseline's) errors into NaN
// exactly like the hardcoded constructors did.
func (c *compiledSpec) value(tab cellTable, metric, cellName string, b workload.Params) float64 {
	o := c.cell(tab, cellName, b)
	if c.sp.Kind == "cmp" {
		base := c.cell(tab, c.sp.Cells[cellName].Baseline, b)
		return cellValue(100*(o.res.Speedup(base.res)-1), base.err, o.err)
	}
	res, err := o.single(), o.err
	if spec.MetricNeedsBaseline(metric) {
		bo := c.cell(tab, c.sp.Cells[cellName].Baseline, b)
		base, berr := bo.single(), bo.err
		switch metric {
		case "improvement_pct":
			return cellValue(100*res.Improvement(base), berr, err)
		case "epi_reduction_pct":
			return cellValue(100*res.EPIReduction(base), berr, err)
		}
	}
	switch metric {
	case "cpi":
		return cellValue(res.CPI(), err)
	case "epki":
		return cellValue(res.EPKI(), err)
	case "ifetch_mpki":
		return cellValue(res.IFetchMPKI(), err)
	case "load_mpki":
		return cellValue(res.LoadMPKI(), err)
	case "coverage_pct":
		return cellValue(100*res.Coverage(), err)
	case "accuracy_pct":
		return cellValue(100*res.Accuracy(), err)
	case "timeliness_pct":
		return cellValue(100*res.Timeliness(), err)
	}
	// Unreachable: spec.Validate pins the metric set; an unknown metric
	// never compiles.
	return math.NaN()
}

// The canonical experiments, as committed ebcp.spec/v1 documents.
//
//go:embed specs/*.json
var specFS embed.FS

// canonicalOrder is the paper-order listing of the canonical
// experiments; TestCanonicalSpecsMatchFiles keeps it equal to the
// embedded file set.
var canonicalOrder = []string{
	"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "cmp", "ablations", "frontier",
}

var (
	canonOnce  sync.Once
	canonExps  []Experiment
	canonSpecs map[string]spec.SpecV1
)

// canonical decodes and compiles the embedded spec files once. The
// specs are build-time constants gated by tier-1 tests (the goldens,
// the spec codec suite, TestCanonicalSpecsMatchRegistry), so a failure
// here can only mean a corrupted build.
//
//ebcp:allow nopanic the embedded canonical specs are compile-time constants validated by tier-1 tests; failing to load them is build corruption, not an input error
func canonical() ([]Experiment, map[string]spec.SpecV1) {
	canonOnce.Do(func() {
		canonSpecs = map[string]spec.SpecV1{}
		byID := map[string]Experiment{}
		entries, err := specFS.ReadDir("specs")
		if err != nil {
			panic(fmt.Sprintf("exp: reading embedded specs: %v", err))
		}
		for _, ent := range entries {
			data, err := specFS.ReadFile("specs/" + ent.Name())
			if err != nil {
				panic(fmt.Sprintf("exp: reading embedded spec %s: %v", ent.Name(), err))
			}
			sp, err := spec.Decode(bytes.NewReader(data))
			if err != nil {
				panic(fmt.Sprintf("exp: decoding embedded spec %s: %v", ent.Name(), err))
			}
			if sp.ID+".json" != ent.Name() {
				panic(fmt.Sprintf("exp: embedded spec %s declares id %q", ent.Name(), sp.ID))
			}
			e, err := FromSpec(sp)
			if err != nil {
				panic(fmt.Sprintf("exp: compiling embedded spec %s: %v", ent.Name(), err))
			}
			byID[sp.ID] = e
			canonSpecs[sp.ID] = sp
		}
		if len(byID) != len(canonicalOrder) {
			panic(fmt.Sprintf("exp: %d embedded specs, want %d (canonicalOrder)", len(byID), len(canonicalOrder)))
		}
		for _, id := range canonicalOrder {
			e, ok := byID[id]
			if !ok {
				panic(fmt.Sprintf("exp: canonical experiment %q has no embedded spec", id))
			}
			canonExps = append(canonExps, e)
		}
	})
	return canonExps, canonSpecs
}

// CanonicalSpec returns the committed spec of one canonical experiment
// (tests read declared tolerances from it; callers may re-render or
// derive ad-hoc variants).
func CanonicalSpec(id string) (spec.SpecV1, error) {
	_, specs := canonical()
	sp, ok := specs[id]
	if !ok {
		return spec.SpecV1{}, ebcperr.Invalidf("exp: unknown experiment %q", id)
	}
	return sp, nil
}
