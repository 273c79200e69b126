// Package spec defines ebcp.spec/v1, the declarative experiment format:
// a JSON document describing a run grid — which workloads, which
// contenders (resolved by name through internal/registry), which system
// tweaks per cell — and how to collect the grid into report rows, plus
// the paper's reference values and tolerances. The canonical
// experiments live as committed spec files under internal/exp/specs;
// `ebcpexp -spec file.json` and an inline `spec` in ebcp.runreq/v1 run
// ad-hoc ones.
//
// The codec follows the repo's schema idiom (ebcp.report/v1): Decode
// reads through metrics.ReadJSON (unknown fields and trailing data are
// rejected), rejects wrong schema strings and validates, so no
// malformed spec reaches the compiler (internal/exp.FromSpec). A spec's
// canonical bytes are what metrics.WriteJSON writes for it; the
// committed spec files are stored that way and round-trip byte for
// byte.
package spec

import (
	"encoding/json"
	"io"
	"regexp"
	"sort"
	"strings"

	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
)

// SchemaV1 identifies version 1 of the experiment-spec shape. Removing
// or renaming any field below requires a new schema string; purely
// additive optional fields (omitted by every existing document, like
// the prefetcher filter block) extend v1 compatibly, because old specs
// keep decoding byte-identically and old decoders reject new documents
// loudly. Decode rejects unknown fields precisely so drift fails loudly.
const SchemaV1 = "ebcp.spec/v1"

// BenchPlaceholder is the substring of cell keys and per-benchmark row
// labels that the compiler replaces with the workload name. Every cell
// key must contain it: cells are instantiated once per benchmark, and a
// key without the placeholder would name two benchmarks' cells alike.
const BenchPlaceholder = "{bench}"

// SpecV1 is one declarative experiment.
type SpecV1 struct {
	Schema string `json:"schema"`
	// ID is the experiment's short name ("table1", "fig4", ...).
	ID string `json:"id"`
	// Title describes the artifact (shown by `ebcpexp -list`).
	Title string `json:"title"`
	// Kind selects the simulation engine: "sim" (single-core cells) or
	// "cmp" (chip-multiprocessor cells with a per-cell core count).
	Kind string `json:"kind"`
	// WarmInsts/MeasureInsts, when non-zero, replace the paper's
	// 150M/100M instruction windows for runs of this spec — unless the
	// runner sets its own windows (ebcpexp -scale, runreq warm_insts),
	// which always win.
	WarmInsts    uint64 `json:"warm_insts,omitempty"`
	MeasureInsts uint64 `json:"measure_insts,omitempty"`
	// Benchmarks restricts the workload set to these names, resolved by
	// workload.ByName (empty = the session's default, the paper's four
	// benchmarks).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Report carries the presentation half: title, unit, notes and the
	// paper's reference rows.
	Report ReportMetaV1 `json:"report"`
	// Columns defines the grid's column axis.
	Columns ColumnsV1 `json:"columns"`
	// Cells names every simulation the grid may reference; each is
	// instantiated once per benchmark (BenchPlaceholder in Key).
	Cells map[string]CellV1 `json:"cells"`
	// Rows collects cells into report rows, in order.
	Rows []RowGroupV1 `json:"rows"`
}

// ReportMetaV1 is the presentation metadata of a spec's report.
type ReportMetaV1 struct {
	Title     string     `json:"title"`
	Unit      string     `json:"unit,omitempty"`
	Notes     []string   `json:"notes,omitempty"`
	Reference []RefRowV1 `json:"reference,omitempty"`
}

// RefRowV1 is one row of paper-stated values, with an optional declared
// tolerance band (percent, relative) for calibration checks.
type RefRowV1 struct {
	Label        string    `json:"label"`
	Values       []float64 `json:"values"`
	TolerancePct float64   `json:"tolerance_pct,omitempty"`
}

// ColumnsV1 selects the column axis: the session's benchmarks, or an
// explicit label list (a swept parameter). Exactly one must be set.
type ColumnsV1 struct {
	Benchmarks bool     `json:"benchmarks,omitempty"`
	Labels     []string `json:"labels,omitempty"`
}

// CellV1 describes one simulation template.
type CellV1 struct {
	// Key is the cell's label, unique within the spec: it names the
	// cell in progress lines and in a run's plan, and must contain
	// BenchPlaceholder. The result store identifies a cell by its
	// content (prefetcher, cores, sim tweaks, workload), never by Key,
	// so two specs may reuse one label for different cells.
	Key string `json:"key"`
	// Prefetcher names the contender (internal/registry) and its
	// strict-decoded parameter block.
	Prefetcher PrefetcherRefV1 `json:"prefetcher"`
	// Baseline names the cell relative metrics compare against
	// (required by improvement_pct, epi_reduction_pct, speedup_pct).
	Baseline string `json:"baseline,omitempty"`
	// Cores is the CMP lane count ("cmp" cells only; "sim" cells must
	// leave it zero).
	Cores int `json:"cores,omitempty"`
	// Sim tweaks the system configuration ("sim" cells only).
	Sim *SimTweaksV1 `json:"sim,omitempty"`
}

// PrefetcherRefV1 is a registry reference: a name plus the constructor's
// parameter block (strict-decoded by the registered factory). A
// non-nil Filter wraps the constructed contender in the adaptive
// prefetch filter (registry.WrapFilter; `{}` takes the tuned filter
// defaults), composable over any registered name.
type PrefetcherRefV1 struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params,omitempty"`
	Filter json.RawMessage `json:"filter,omitempty"`
}

// SimTweaksV1 overrides system-configuration knobs for one cell. Zero
// fields keep the simulator defaults.
type SimTweaksV1 struct {
	PBEntries int     `json:"pb_entries,omitempty"`
	ReadGBps  float64 `json:"read_gbps,omitempty"`
	WriteGBps float64 `json:"write_gbps,omitempty"`
}

// RowGroupV1 is an ordered run of report rows. A per-benchmark group is
// expanded once per workload (benchmark-major: all its rows for the
// first benchmark, then all for the second — Figure 5's five-metric
// blocks); a plain group appears once.
type RowGroupV1 struct {
	PerBenchmark bool    `json:"per_benchmark,omitempty"`
	Rows         []RowV1 `json:"rows"`
}

// RowV1 is one report row: a label (BenchPlaceholder allowed in
// per-benchmark groups), the metric to compute, and the cells it reads
// — one cell name per explicit column, or a single cell name applied
// across benchmark columns.
type RowV1 struct {
	Label  string   `json:"label"`
	Metric string   `json:"metric"`
	Cells  []string `json:"cells"`
}

// metricsV1 is the closed metric set: which engine kind each belongs to
// and whether it compares against the cell's baseline.
var metricsV1 = map[string]struct {
	kind     string
	relative bool
}{
	"cpi":               {"sim", false},
	"epki":              {"sim", false},
	"ifetch_mpki":       {"sim", false},
	"load_mpki":         {"sim", false},
	"coverage_pct":      {"sim", false},
	"accuracy_pct":      {"sim", false},
	"timeliness_pct":    {"sim", false},
	"improvement_pct":   {"sim", true},
	"epi_reduction_pct": {"sim", true},
	"speedup_pct":       {"cmp", true},
}

// MetricNeedsBaseline reports whether a metric compares against the
// cell's baseline cell. Unknown metrics never reach the compiler:
// Validate rejects them.
func MetricNeedsBaseline(metric string) bool { return metricsV1[metric].relative }

// Decode parses a spec through metrics.ReadJSON (unknown fields and
// trailing data are rejected), then wrong schema strings and anything
// Validate rejects. Every error matches
// ebcperr.ErrInvalidConfig.
func Decode(r io.Reader) (SpecV1, error) {
	var sp SpecV1
	if err := metrics.ReadJSON(r, &sp); err != nil {
		return SpecV1{}, ebcperr.Invalidf("spec: decoding: %v", err)
	}
	if sp.Schema != SchemaV1 {
		return SpecV1{}, ebcperr.Invalidf("spec: unsupported schema %q (want %q)", sp.Schema, SchemaV1)
	}
	if err := sp.Validate(); err != nil {
		return SpecV1{}, err
	}
	return sp, nil
}

var idRe = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// Validate checks everything about a spec that does not need the
// registry: shape, references between rows and cells, metric/kind
// agreement, tolerance ranges. Registry names are resolved later by the
// compiler, so a spec can be validated without instantiating anything.
// All errors match ebcperr.ErrInvalidConfig.
func (sp SpecV1) Validate() error {
	if !idRe.MatchString(sp.ID) {
		return ebcperr.Invalidf("spec %q: id must match %s", sp.ID, idRe)
	}
	if sp.Title == "" || sp.Report.Title == "" {
		return ebcperr.Invalidf("spec %q: title and report.title are required", sp.ID)
	}
	if sp.Kind != "sim" && sp.Kind != "cmp" {
		return ebcperr.Invalidf("spec %q: kind %q must be \"sim\" or \"cmp\"", sp.ID, sp.Kind)
	}
	if sp.Columns.Benchmarks == (len(sp.Columns.Labels) > 0) {
		return ebcperr.Invalidf("spec %q: exactly one of columns.benchmarks and columns.labels must be set", sp.ID)
	}
	seen := map[string]bool{}
	for _, b := range sp.Benchmarks {
		if b == "" || seen[b] {
			return ebcperr.Invalidf("spec %q: benchmarks must be non-empty and unique (got %q)", sp.ID, b)
		}
		seen[b] = true
	}
	for _, ref := range sp.Report.Reference {
		if ref.Label == "" {
			return ebcperr.Invalidf("spec %q: reference rows need labels", sp.ID)
		}
		if ref.TolerancePct < 0 || ref.TolerancePct > 100 {
			return ebcperr.Invalidf("spec %q: reference %q tolerance_pct %g out of [0, 100]",
				sp.ID, ref.Label, ref.TolerancePct)
		}
	}
	if err := sp.validateCells(); err != nil {
		return err
	}
	return sp.validateRows()
}

func (sp SpecV1) validateCells() error {
	if len(sp.Cells) == 0 {
		return ebcperr.Invalidf("spec %q: at least one cell is required", sp.ID)
	}
	names := make([]string, 0, len(sp.Cells))
	for name := range sp.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	keys := map[string]string{}
	for _, name := range names {
		c := sp.Cells[name]
		if name == "" {
			return ebcperr.Invalidf("spec %q: cell names must be non-empty", sp.ID)
		}
		if !strings.Contains(c.Key, BenchPlaceholder) {
			return ebcperr.Invalidf("spec %q: cell %q key %q must contain %s (cells instantiate per benchmark)",
				sp.ID, name, c.Key, BenchPlaceholder)
		}
		if prev, dup := keys[c.Key]; dup {
			return ebcperr.Invalidf("spec %q: cells %q and %q share key %q", sp.ID, prev, name, c.Key)
		}
		keys[c.Key] = name
		if c.Prefetcher.Name == "" {
			return ebcperr.Invalidf("spec %q: cell %q needs a prefetcher name", sp.ID, name)
		}
		if c.Baseline != "" {
			if _, ok := sp.Cells[c.Baseline]; !ok {
				return ebcperr.Invalidf("spec %q: cell %q baseline %q is not a cell", sp.ID, name, c.Baseline)
			}
		}
		switch sp.Kind {
		case "sim":
			if c.Cores != 0 {
				return ebcperr.Invalidf("spec %q: cell %q sets cores in a sim-kind spec", sp.ID, name)
			}
		case "cmp":
			if c.Cores < 1 {
				return ebcperr.Invalidf("spec %q: cell %q needs cores >= 1 in a cmp-kind spec", sp.ID, name)
			}
			if c.Sim != nil {
				return ebcperr.Invalidf("spec %q: cell %q: sim tweaks are not supported for cmp cells", sp.ID, name)
			}
		}
		if c.Sim != nil {
			if c.Sim.PBEntries < 0 || c.Sim.ReadGBps < 0 || c.Sim.WriteGBps < 0 {
				return ebcperr.Invalidf("spec %q: cell %q sim tweaks must be non-negative", sp.ID, name)
			}
		}
	}
	return nil
}

func (sp SpecV1) validateRows() error {
	if len(sp.Rows) == 0 {
		return ebcperr.Invalidf("spec %q: at least one row group is required", sp.ID)
	}
	for gi, g := range sp.Rows {
		if len(g.Rows) == 0 {
			return ebcperr.Invalidf("spec %q: row group %d is empty", sp.ID, gi)
		}
		if len(sp.Columns.Labels) > 0 && !g.PerBenchmark {
			return ebcperr.Invalidf("spec %q: row group %d: explicit columns require per_benchmark groups (nothing else binds a benchmark)", sp.ID, gi)
		}
		for _, r := range g.Rows {
			if r.Label == "" {
				return ebcperr.Invalidf("spec %q: row group %d has an unlabeled row", sp.ID, gi)
			}
			if !g.PerBenchmark && strings.Contains(r.Label, BenchPlaceholder) {
				return ebcperr.Invalidf("spec %q: row %q uses %s outside a per-benchmark group", sp.ID, r.Label, BenchPlaceholder)
			}
			m, known := metricsV1[r.Metric]
			if !known {
				return ebcperr.Invalidf("spec %q: row %q: unknown metric %q", sp.ID, r.Label, r.Metric)
			}
			if m.kind != sp.Kind {
				return ebcperr.Invalidf("spec %q: row %q: metric %q needs kind %q", sp.ID, r.Label, r.Metric, m.kind)
			}
			want := 1
			if n := len(sp.Columns.Labels); n > 0 {
				want = n
			}
			if len(r.Cells) != want {
				return ebcperr.Invalidf("spec %q: row %q references %d cells, want %d (one per column)",
					sp.ID, r.Label, len(r.Cells), want)
			}
			for _, cn := range r.Cells {
				c, ok := sp.Cells[cn]
				if !ok {
					return ebcperr.Invalidf("spec %q: row %q references unknown cell %q", sp.ID, r.Label, cn)
				}
				if m.relative && c.Baseline == "" {
					return ebcperr.Invalidf("spec %q: row %q: metric %q needs cell %q to declare a baseline",
						sp.ID, r.Label, r.Metric, cn)
				}
			}
		}
	}
	return nil
}
