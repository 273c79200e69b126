package exp

import (
	"math"
	"strings"
	"testing"

	"ebcp/internal/registry"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// The shape tests run every experiment at reduced windows (shorter
// training weakens the correlation prefetchers somewhat, so the bands are
// generous); what they pin down is the paper's qualitative structure:
// who wins, what is monotone, and where the knees are.

// session is shared across tests so memoized runs amortize. The
// workloads are scaled down so the correlation prefetchers train within
// the shortened warmup the way they do at full scale.
var testBenchmarks = workload.All()

var testSession = NewSession(Options{Warm: 40e6, Measure: 20e6})

// mustExp resolves a canonical experiment by id.
func mustExp(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) failed", e.ID)
		}
	}
	if !ids["table1"] || !ids["fig9"] {
		t.Error("registry missing required experiments")
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTable1WithinBands(t *testing.T) {
	// The tolerance bands come from the committed spec, not a constant
	// here: the spec is the single place the acceptance criteria live.
	sp, err := CanonicalSpec("table1")
	if err != nil {
		t.Fatal(err)
	}
	tol := map[string]float64{}
	for _, ref := range sp.Report.Reference {
		if ref.TolerancePct == 0 {
			t.Fatalf("table1 reference %q declares no tolerance_pct", ref.Label)
		}
		tol[ref.Label] = ref.TolerancePct / 100
	}
	rep := mustExp(t, "table1").Run(testSession)
	for _, row := range rep.Rows {
		ref := rep.refFor(row.Label)
		if ref == nil {
			t.Fatalf("no reference for %q", row.Label)
		}
		for i, v := range row.Values {
			want := ref.Values[i]
			if want == 0 {
				continue
			}
			if rel := math.Abs(v-want) / want; rel > tol[row.Label] {
				t.Errorf("%s / %s = %.2f, paper %.2f (off %.0f%%)",
					row.Label, rep.Columns[i], v, want, 100*rel)
			}
		}
	}
}

func TestFig4DegreeMonotoneRange(t *testing.T) {
	rep := mustExp(t, "fig4").Run(testSession)
	for _, row := range rep.Rows {
		first, last := row.Values[0], row.Values[len(row.Values)-1]
		if first <= 0 {
			t.Errorf("%s: degree-1 improvement %.1f%% should be positive", row.Label, first)
		}
		if last <= first {
			t.Errorf("%s: degree 32 (%.1f%%) must beat degree 1 (%.1f%%)", row.Label, last, first)
		}
		// Paper band: tuned-to-idealized improvements live in ~8-50%.
		if last < 3 || last > 60 {
			t.Errorf("%s: degree-32 improvement %.1f%% outside the plausible band", row.Label, last)
		}
	}
}

func TestFig5AccuracyFallsCoverageRises(t *testing.T) {
	rep := mustExp(t, "fig5").Run(testSession)
	for _, row := range rep.Rows {
		n := len(row.Values)
		switch {
		case strings.Contains(row.Label, "accuracy"):
			if row.Values[0] <= row.Values[n-1] {
				t.Errorf("%s: accuracy at degree 1 (%.1f) should exceed degree 32 (%.1f)",
					row.Label, row.Values[0], row.Values[n-1])
			}
		case strings.Contains(row.Label, "coverage"):
			if row.Values[n-1] <= row.Values[0] {
				t.Errorf("%s: coverage must grow with degree (%.1f -> %.1f)",
					row.Label, row.Values[0], row.Values[n-1])
			}
		}
	}
}

func TestFig5EPITracksCoverage(t *testing.T) {
	rep := mustExp(t, "fig5").Run(testSession)
	// For each benchmark, the correlation between EPI reduction and
	// coverage across degrees should be strongly positive (the paper's
	// central observation).
	for _, b := range testBenchmarks {
		var epi, cov []float64
		for _, row := range rep.Rows {
			if row.Label == b.Name+": EPI reduction %" {
				epi = row.Values
			}
			if row.Label == b.Name+": coverage %" {
				cov = row.Values
			}
		}
		if len(epi) == 0 || len(cov) == 0 {
			t.Fatalf("missing rows for %s", b.Name)
		}
		if corr := pearson(epi, cov); corr < 0.8 {
			t.Errorf("%s: EPI reduction should track coverage (corr %.2f)", b.Name, corr)
		}
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	num := n*sab - sa*sb
	den := math.Sqrt(n*saa-sa*sa) * math.Sqrt(n*sbb-sb*sb)
	if den == 0 {
		return 0
	}
	return num / den
}

func TestFig6TableSizeKnee(t *testing.T) {
	rep := mustExp(t, "fig6").Run(testSession)
	better := 0
	for _, row := range rep.Rows {
		small := row.Values[0] // 64K entries
		oneM := row.Values[2]  // 1M entries
		big := row.Values[4]   // 8M entries
		if oneM > small+0.5 {
			better++
		}
		// 1M entries must be close to the 8M idealized table (the paper's
		// "one million entries is sufficient").
		if big-oneM > 6 {
			t.Errorf("%s: 1M entries (%.1f%%) erodes too much vs 8M (%.1f%%)", row.Label, oneM, big)
		}
	}
	if better < 3 {
		t.Errorf("only %d/4 benchmarks lose performance at 64K entries; conflict erosion missing", better)
	}
}

func TestFig7BufferKnee(t *testing.T) {
	rep := mustExp(t, "fig7").Run(testSession)
	for _, row := range rep.Rows {
		tiny, tuned, big := row.Values[0], row.Values[2], row.Values[4]
		if tiny > tuned+1 {
			t.Errorf("%s: a 16-entry buffer (%.1f%%) should not beat 64 entries (%.1f%%)",
				row.Label, tiny, tuned)
		}
		// 64 entries must already be near the 1024-entry point.
		if big-tuned > 8 {
			t.Errorf("%s: 64 entries (%.1f%%) too far below 1024 (%.1f%%)", row.Label, tuned, big)
		}
	}
}

func TestFig9Ordering(t *testing.T) {
	rep := mustExp(t, "fig9").Run(testSession)
	get := func(label, col string) float64 {
		v, ok := rep.Value(label, col)
		if !ok {
			t.Fatalf("missing %s/%s", label, col)
		}
		return v
	}
	for _, b := range testBenchmarks {
		col := b.Name
		ebcp := get("EBCP", col)
		// EBCP wins on every benchmark (1pp tolerance for the reduced
		// training window; at full windows the lead is clear — see
		// EXPERIMENTS.md).
		for _, other := range []string{
			"GHB small", "GHB large", "TCP small", "TCP large",
			"stream", "SMS", "Solihin 3,2", "Solihin 6,1", "EBCP minus",
		} {
			if v := get(other, col); v > ebcp+1.0 {
				t.Errorf("%s: %s (%.1f%%) must not beat EBCP (%.1f%%)", col, other, v, ebcp)
			}
		}
		if get("Solihin 6,1", col) <= get("Solihin 3,2", col)-0.5 {
			t.Errorf("%s: depth prefetching must beat width prefetching", col)
		}
		if get("GHB large", col) < get("GHB small", col)-0.5 {
			t.Errorf("%s: GHB large must not trail GHB small", col)
		}
	}
	// SMS splits by benchmark: helps Database and SPECjbb2005, not the
	// instruction-bound web benchmarks.
	if get("SMS", "Database") <= get("SMS", "TPC-W") {
		t.Error("SMS should gain more on Database than on TPC-W")
	}
	if get("SMS", "SPECjbb2005") <= get("SMS", "SPECjAppServer2004") {
		t.Error("SMS should gain more on SPECjbb2005 than on SPECjAppServer2004")
	}
}

func TestFig8BandwidthSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("60 simulations")
	}
	if raceDetectorOn {
		t.Skip("60 simulations; fig8 cells still race-exercised by TestCanonicalGoldens")
	}
	rep := mustExp(t, "fig8").Run(testSession)
	// For each benchmark, the degree-32 point at 9.6GB/s must beat the
	// degree-32 point at 3.2GB/s (improvements vs the common baseline).
	for _, b := range testBenchmarks {
		low, ok1 := rep.Value(b.Name+" @ 3.2GB/s", "deg 32")
		high, ok2 := rep.Value(b.Name+" @ 9.6GB/s", "deg 32")
		if !ok1 || !ok2 {
			t.Fatalf("missing fig8 rows for %s", b.Name)
		}
		if low >= high {
			t.Errorf("%s: degree-32 at 3.2GB/s (%.1f%%) must trail 9.6GB/s (%.1f%%)", b.Name, low, high)
		}
	}
}

func TestReportRenderAndValue(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t", Unit: "%",
		Columns:   []string{"A", "B"},
		Rows:      []Row{{Label: "r1", Values: []float64{1, 2}}},
		Reference: []Row{{Label: "r1", Values: []float64{1.5, 2.5}}},
		Notes:     []string{"note"},
	}
	out := rep.String()
	for _, want := range []string{"x — t", "r1", "(paper)", "note", "1.00", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if v, ok := rep.Value("r1", "B"); !ok || v != 2 {
		t.Errorf("Value = %v, %v", v, ok)
	}
	if _, ok := rep.Value("r1", "C"); ok {
		t.Error("missing column accepted")
	}
	if _, ok := rep.Value("zz", "A"); ok {
		t.Error("missing row accepted")
	}
}

// baselineReq is the no-prefetching cell for a benchmark.
func baselineReq(t *testing.T, bench workload.Params) cellReq {
	t.Helper()
	none, err := registry.Prefetcher("none")
	if err != nil {
		t.Fatal(err)
	}
	cell := spec.CellV1{Key: "base/{bench}", Prefetcher: spec.PrefetcherRefV1{Name: "none"}}
	tpl := &cellTemplate{CellV1: cell, pf: none, id: cellIdentity(cell)}
	return cellReq{label: "base/" + bench.Name, bench: bench, tpl: tpl}
}

func TestSessionMemoization(t *testing.T) {
	s := NewSession(Options{Warm: 1e6, Measure: 1e6})
	b := workload.SPECjbb2005()
	s.resolve(baselineReq(t, b))
	runs := s.Runs()
	s.resolve(baselineReq(t, b))
	if s.Runs() != runs {
		t.Error("baseline should be memoized")
	}
	if s.SharedHits() != 1 {
		t.Errorf("SharedHits = %d, want 1 (the replay)", s.SharedHits())
	}
	if n := s.opts.Cache.Stats().Entries; n != runs {
		t.Errorf("store holds %d entries for %d runs", n, runs)
	}
}

func TestCMPPlacementArgument(t *testing.T) {
	if testing.Short() {
		t.Skip("36 simulations")
	}
	if raceDetectorOn {
		t.Skip("36 simulations; cmp cells still race-exercised by TestCanonicalGoldens")
	}
	rep := mustExp(t, "cmp").Run(testSession)
	for _, b := range testBenchmarks {
		e1, _ := rep.Value(b.Name+": EBCP", "1 core")
		e4, _ := rep.Value(b.Name+": EBCP", "4 cores")
		s1, _ := rep.Value(b.Name+": Solihin 6,1", "1 core")
		s4, _ := rep.Value(b.Name+": Solihin 6,1", "4 cores")
		if e1 <= 0 || s1 <= 0 {
			t.Fatalf("%s: single-core speedups must be positive (ebcp %.1f, sol %.1f)", b.Name, e1, s1)
		}
		// The memory-side prefetcher must lose a larger share of its
		// benefit under 4-way interleaving than EBCP does.
		if s4/s1 >= e4/e1 {
			t.Errorf("%s: Solihin retains %.2f of its benefit at 4 cores, EBCP %.2f — the placement argument should separate them",
				b.Name, s4/s1, e4/e1)
		}
	}
}

func TestAblationsEveryChoiceMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("32 simulations")
	}
	if raceDetectorOn {
		t.Skip("32 simulations; ablation cells still race-exercised by TestCanonicalGoldens")
	}
	rep := mustExp(t, "ablations").Run(testSession)
	for _, b := range testBenchmarks {
		tuned, _ := rep.Value("tuned EBCP", b.Name)
		for _, abl := range []string{"minus (+1/+2 epochs)", "no PB-hit lookups", "EMAB depth 3"} {
			v, ok := rep.Value(abl, b.Name)
			if !ok {
				t.Fatalf("missing %s", abl)
			}
			if v >= tuned {
				t.Errorf("%s: ablation %q (%.1f%%) should cost performance vs tuned (%.1f%%)",
					b.Name, abl, v, tuned)
			}
		}
		// A 3-deep EMAB stores the same epoch offsets as EBCP-minus; the
		// two ablations must land close together.
		d3, _ := rep.Value("EMAB depth 3", b.Name)
		minus, _ := rep.Value("minus (+1/+2 epochs)", b.Name)
		if diff := d3 - minus; diff > 2 || diff < -2 {
			t.Errorf("%s: EMAB depth 3 (%.1f%%) should match minus timing (%.1f%%)", b.Name, d3, minus)
		}
	}
}

func TestRenderCSVAndMarkdown(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t", Unit: "%",
		Columns:   []string{"A", "B"},
		Rows:      []Row{{Label: "r1", Values: []float64{1.25, 2}}},
		Reference: []Row{{Label: "r1", Values: []float64{1.5, 2.5}}},
		Notes:     []string{"a note"},
	}
	var csvOut strings.Builder
	if err := rep.RenderCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"label,A,B", "r1,1.2500", "paper:r1,1.5000"} {
		if !strings.Contains(csvOut.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, csvOut.String())
		}
	}
	var mdOut strings.Builder
	if err := rep.RenderMarkdown(&mdOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### x — t (%)", "| r1 | 1.25 | 2.00 |", "| *paper* | *1.50* | *2.50* |", "> a note"} {
		if !strings.Contains(mdOut.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, mdOut.String())
		}
	}
	var txt strings.Builder
	if err := rep.RenderFormat(&txt, "text"); err != nil || txt.Len() == 0 {
		t.Error("text format failed")
	}
	if err := rep.RenderFormat(&txt, "nope"); err == nil {
		t.Error("unknown format accepted")
	}
}
