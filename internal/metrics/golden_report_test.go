package metrics_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ebcp/internal/core"
	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/sim"
	"ebcp/internal/workload"
)

// The golden report tests pin the full serialized form of ReportV1
// documents produced by the real pipeline — one single-run document
// (the ebcpsim shape) and one experiment-grid document (the ebcpexp
// shape) — byte for byte. Schema drift of any kind (field renames,
// reordering, new fields, changed derivations, behavioural changes to
// the simulator underneath) fails these tests; when the change is
// deliberate, regenerate with:
//
//	go test ./internal/metrics/ -run TestGoldenReport -update

var update = flag.Bool("update", false, "rewrite the golden report files")

// singleRunReport builds the ebcpsim-shaped document from two short
// deterministic runs: Database under a small tuned EBCP, plus its
// no-prefetching baseline and the comparison block.
func singleRunReport(t *testing.T) metrics.ReportV1 {
	t.Helper()
	bench := workload.Database()
	cfg := sim.DefaultConfig()
	cfg.Core.OnChipCPI = bench.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6

	ecfg := core.DefaultConfig()
	ecfg.TableEntries = 1 << 16
	pf, err := core.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(gen, pf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err = workload.New(bench)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(gen, prefetch.None{}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rep := metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpsim"}
	for _, r := range []struct {
		role string
		res  sim.Result
	}{{"measured", res}, {"baseline", base}} {
		rep.Runs = append(rep.Runs, metrics.RunV1{
			Benchmark: bench.Name,
			Role:      r.role,
			Config:    cfg.MetricsConfig(),
			Raw:       r.res,
			Derived:   r.res.Derive(),
		})
	}
	rep.Comparison = &metrics.ComparisonV1{
		ImprovementPct:  100 * res.Improvement(base),
		EPIReductionPct: 100 * res.EPIReduction(base),
	}
	return rep
}

// gridReport builds the ebcpexp-shaped document: table1 at a tiny
// deterministic window.
func gridReport(t *testing.T) metrics.ReportV1 {
	t.Helper()
	e, err := exp.ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	s := exp.NewSession(exp.Options{Warm: 150_000, Measure: 100_000})
	rep := e.Run(s)
	if n := rep.NACells(); n != 0 {
		t.Fatalf("golden grid run produced %d n/a cells", n)
	}
	return metrics.ReportV1{
		Schema: metrics.SchemaV1,
		Tool:   "ebcpexp",
		Grids:  []metrics.GridV1{rep.GridV1()},
	}
}

// checkGolden encodes the document, compares it byte-for-byte against
// the committed golden file, and verifies the strict decoder round-trips
// the bytes back to an identical document.
func checkGolden(t *testing.T, name string, rep metrics.ReportV1) {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s drifted from golden (len %d vs %d)\n"+
			"if the schema or simulator change is intentional, regenerate with -update",
			name, buf.Len(), len(want))
	}

	decoded, err := metrics.DecodeReportV1(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden %s does not decode: %v", name, err)
	}
	if !reflect.DeepEqual(decoded, rep) {
		t.Errorf("%s: decode(golden) != generated document", name)
	}
	var again bytes.Buffer
	if err := metrics.WriteJSON(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("%s: re-encoding the decoded document changed the bytes", name)
	}
}

func TestGoldenReportSingleRun(t *testing.T) {
	checkGolden(t, "report_single.json", singleRunReport(t))
}

func TestGoldenReportGrid(t *testing.T) {
	checkGolden(t, "report_grid.json", gridReport(t))
}
