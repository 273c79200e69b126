package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ebcp/internal/metrics"
)

// TestMain lets the test binary impersonate the CLI: when the marker
// env var is set, run main() with its args instead of the test suite.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv("EBCPEXP_ARGS"); ok {
		os.Args = append([]string{"ebcpexp"}, strings.Split(spec, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes this test binary as ebcpexp with the given flags.
func runCLI(t *testing.T, args ...string) (output string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EBCPEXP_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestBadFlagsExitOne(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"scale too large", []string{"-scale", "2"}, "-scale must be in (0, 1]"},
		{"scale zero", []string{"-scale", "0"}, "-scale must be in (0, 1]"},
		{"scale NaN", []string{"-scale", "NaN"}, "-scale must be in (0, 1]"},
		{"workers negative", []string{"-workers", "-3"}, "-workers must be non-negative"},
		{"max insts negative", []string{"-max-insts", "-1"}, "-max-insts must be non-negative"},
		{"max insts NaN", []string{"-max-insts", "NaN"}, "-max-insts must be finite"},
		{"max insts Inf", []string{"-max-insts", "+Inf"}, "-max-insts must be finite"},
		{"max insts overflows uint64", []string{"-max-insts", "2e19"}, "-max-insts must be below 2^64"},
		{"unknown experiment", []string{"-exp", "nope"}, "unknown experiment"},
		{"unknown experiment names segment", []string{"-exp", "table1, nope"}, `segment " nope"`},
		{"exp all commas", []string{"-exp", " , ,"}, "names no experiments"},
		{"spec and exp together", []string{"-spec", "x.json", "-exp", "table1"}, "mutually exclusive"},
		{"spec missing file", []string{"-spec", "does-not-exist.json"}, "does-not-exist.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, code := runCLI(t, c.args...)
			if code != 1 {
				t.Errorf("exit code = %d, want 1 (output: %s)", code, out)
			}
			if !strings.Contains(out, c.want) {
				t.Errorf("diagnostic %q does not mention %q", out, c.want)
			}
		})
	}
}

// TestShortTraceRendersNAAndExitsNonZero is the report-level regression
// test: truncated traces must never produce a clean-looking report.
func TestShortTraceRendersNAAndExitsNonZero(t *testing.T) {
	out, code := runCLI(t,
		"-exp", "table1", "-scale", "0.001", "-max-insts", "10000")
	if code == 0 {
		t.Errorf("short-trace report exited 0; output:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Errorf("failed cells not rendered as n/a:\n%s", out)
	}
	if !strings.Contains(out, "rendered as n/a") {
		t.Errorf("stderr accounting missing:\n%s", out)
	}
	// The footnote points to stderr for the reason, so it must be there
	// without -v.
	if !strings.Contains(out, "failed: sim: trace ended after") {
		t.Errorf("stderr lacks the failure reason without -v:\n%s", out)
	}
	if strings.Contains(out, "0.00") {
		// No contaminated zeros should masquerade as measured values in
		// the measured rows (paper reference rows are unaffected).
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "0.00") && !strings.Contains(line, "(paper)") {
				t.Errorf("suspicious zero-valued measured row: %q", line)
			}
		}
	}
}

// TestUnsimulatedCellsExplainNA covers cells that never simulate: a
// -timeout that expires before the first cell starts cancels every
// cell, so no simulation reports a reason, and stderr must still carry
// one for the n/a footnote to point to.
func TestUnsimulatedCellsExplainNA(t *testing.T) {
	out, code := runCLI(t, "-exp", "table1", "-scale", "0.001", "-timeout", "1ns")
	if code == 0 {
		t.Errorf("cancelled run exited 0; output:\n%s", out)
	}
	if !strings.Contains(out, "total simulations executed: 0") {
		t.Errorf("a cell simulated before the deadline:\n%s", out)
	}
	if !strings.Contains(out, "rendered as n/a") {
		t.Errorf("stderr accounting missing:\n%s", out)
	}
	if !strings.Contains(out, "not simulated: context deadline exceeded") {
		t.Errorf("stderr lacks the reason the cells did not simulate:\n%s", out)
	}
}

// TestJSONReport runs one experiment with -json -o and checks the file
// is a well-formed v1 document: strict-decodable, one grid per
// experiment, with the paper's reference rows carried alongside.
func TestJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	out, code := runCLI(t,
		"-exp", "table1", "-scale", "0.002", "-json", "-o", path)
	if code != 0 {
		t.Fatalf("-json run exit code = %d; output:\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := metrics.DecodeReportV1(f)
	if err != nil {
		t.Fatalf("decoding -json report: %v", err)
	}
	if rep.Tool != "ebcpexp" {
		t.Errorf("tool = %q, want ebcpexp", rep.Tool)
	}
	if len(rep.Runs) != 0 {
		t.Errorf("grid report carries %d runs, want 0", len(rep.Runs))
	}
	if len(rep.Grids) != 1 {
		t.Fatalf("got %d grids, want 1", len(rep.Grids))
	}
	g := rep.Grids[0]
	if g.ID != "table1" {
		t.Errorf("grid id = %q, want table1", g.ID)
	}
	if len(g.Rows) == 0 || len(g.Columns) == 0 {
		t.Fatalf("empty grid: %d rows × %d columns", len(g.Rows), len(g.Columns))
	}
	if g.NACells != 0 {
		t.Errorf("clean run produced %d n/a cells", g.NACells)
	}
	for _, row := range g.Rows {
		if len(row.Values) != len(g.Columns) {
			t.Errorf("row %q has %d values for %d columns", row.Label, len(row.Values), len(g.Columns))
		}
		for j, v := range row.Values {
			if v == nil {
				t.Errorf("row %q column %d is null in a clean run", row.Label, j)
			}
		}
	}
	if len(g.Paper) == 0 {
		t.Error("paper reference rows missing from grid")
	}
}

// TestExpListTolerant pins the -exp parser's fixes: whitespace, stray
// commas and repeated ids must not abort or duplicate work — the repeat
// runs (and renders) once.
func TestExpListTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	out, code := runCLI(t,
		"-exp", " table1, ,table1,", "-scale", "0.002", "-json", "-o", path)
	if code != 0 {
		t.Fatalf("exit code = %d; output:\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := metrics.DecodeReportV1(f)
	if err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if len(rep.Grids) != 1 || rep.Grids[0].ID != "table1" {
		t.Errorf("deduped -exp list produced %d grids, want exactly one table1", len(rep.Grids))
	}
}

// TestSpecFileRun runs a committed canonical spec through the -spec
// path end to end: the same bytes a user would author must decode,
// compile against the registry, simulate, and render a clean strict-v1
// report. This is also the CI spec smoke test.
func TestSpecFileRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	out, code := runCLI(t,
		"-spec", filepath.Join("..", "..", "internal", "exp", "specs", "table1.json"),
		"-scale", "0.002", "-json", "-o", path)
	if code != 0 {
		t.Fatalf("-spec run exit code = %d; output:\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := metrics.DecodeReportV1(f)
	if err != nil {
		t.Fatalf("decoding -spec report: %v", err)
	}
	if len(rep.Grids) != 1 || rep.Grids[0].ID != "table1" {
		t.Fatalf("-spec run produced %d grids (want one table1 grid)", len(rep.Grids))
	}
	if rep.Grids[0].NACells != 0 {
		t.Errorf("clean -spec run produced %d n/a cells", rep.Grids[0].NACells)
	}
	if len(rep.Grids[0].Paper) == 0 {
		t.Error("spec's reference rows missing from grid")
	}
}

// TestJSONFormatMutuallyExclusive pins the flag validation: -json owns
// the output shape, so combining it with -format must fail fast.
func TestJSONFormatMutuallyExclusive(t *testing.T) {
	out, code := runCLI(t, "-exp", "table1", "-json", "-format", "csv")
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (output: %s)", code, out)
	}
	if !strings.Contains(out, "mutually exclusive") {
		t.Errorf("diagnostic %q does not mention exclusivity", out)
	}
}

func TestListExitsZero(t *testing.T) {
	out, code := runCLI(t, "-list")
	if code != 0 {
		t.Errorf("-list exit code = %d", code)
	}
	if !strings.Contains(out, "table1") {
		t.Errorf("-list output missing experiments:\n%s", out)
	}
}
