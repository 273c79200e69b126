package main

import (
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/registry"
)

// TestMain lets the test binary impersonate the CLI: when the marker
// env var is set, run main() with its args instead of the test suite.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv("EBCPSIM_ARGS"); ok {
		os.Args = append([]string{"ebcpsim"}, strings.Split(spec, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes this test binary as ebcpsim with the given flags.
func runCLI(t *testing.T, args ...string) (output string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EBCPSIM_ARGS="+strings.Join(args, "\x1f"))
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
		want string // substring of the diagnostic
	}{
		{"pb zero", []string{"-pb", "0"}, "prefetch buffer shape 0/"},
		{"degree negative", []string{"-params", `{"degree": -1}`}, "degree -1 must be positive"},
		{"warm negative", []string{"-warm", "-5"}, "-warm must be non-negative"},
		{"warm NaN", []string{"-warm", "NaN"}, "-warm must be non-negative"},
		{"measure zero", []string{"-measure", "0"}, "-measure must be positive"},
		{"measure Inf", []string{"-measure", "+Inf"}, "-measure must be positive"},
		{"max insts NaN", []string{"-max-insts", "NaN"}, "-max-insts must be non-negative"},
		{"max insts overflows uint64", []string{"-max-insts", "2e19"}, "-max-insts must be non-negative and below 2^64"},
		{"table entries zero", []string{"-params", `{"table_entries": 0}`}, "table entries 0 must be a positive power of two"},
		{"bandwidth zero", []string{"-read-gbps", "0"}, "bandwidths 0/4.8 GB/s must be positive"},
		{"bandwidth NaN", []string{"-read-gbps", "NaN"}, "bandwidths NaN/4.8 GB/s must be positive"},
		{"write bandwidth NaN", []string{"-write-gbps", "NaN"}, "bandwidths 9.6/NaN GB/s must be positive"},
		{"bandwidth Inf", []string{"-read-gbps", "+Inf"}, "bandwidths +Inf/4.8 GB/s must be positive and finite"},
		{"bandwidth too small for a 64-bit occupancy", []string{"-read-gbps", "1e-300"}, "holds the bus more than"},
		{"unknown workload", []string{"-workload", "nope"}, "nope"},
		{"unknown prefetcher", []string{"-prefetcher", "nope"}, "unknown prefetcher"},
		{"unknown param", []string{"-params", `{"nope": 1}`}, `registry: prefetcher "ebcp" params: json: unknown field "nope"`},
		{"malformed params", []string{"-params", "x"}, `registry: prefetcher "ebcp" params: invalid character 'x'`},
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

func TestShortTraceExitsNonZero(t *testing.T) {
	out, code := runCLI(t,
		"-max-insts", "50000", "-warm", "500000", "-measure", "500000", "-nobase")
	if code == 0 {
		t.Errorf("short trace exited 0; output:\n%s", out)
	}
	if !strings.Contains(out, "statistics include warmup") {
		t.Errorf("missing warmup-contamination warning in output:\n%s", out)
	}
}

func TestValidRunExitsZero(t *testing.T) {
	out, code := runCLI(t,
		"-warm", "200000", "-measure", "200000", "-nobase", "-prefetcher", "none")
	if code != 0 {
		t.Errorf("valid run exit code = %d; output:\n%s", code, out)
	}
	if !strings.Contains(out, "CPI") {
		t.Errorf("expected statistics in output, got:\n%s", out)
	}
}

// TestJSONReport exercises the -json path end to end: the document must
// parse under the strict v1 decoder, carry both the measured and
// baseline runs, and reconcile its own counters.
func TestJSONReport(t *testing.T) {
	out, code := runCLI(t,
		"-warm", "200000", "-measure", "200000", "-json")
	if code != 0 {
		t.Fatalf("-json run exit code = %d; output:\n%s", code, out)
	}
	rep, err := metrics.DecodeReportV1(strings.NewReader(out))
	if err != nil {
		t.Fatalf("decoding -json output: %v\noutput:\n%s", err, out)
	}
	if rep.Tool != "ebcpsim" {
		t.Errorf("tool = %q, want ebcpsim", rep.Tool)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want measured + baseline", len(rep.Runs))
	}
	if rep.Runs[0].Role != "measured" || rep.Runs[1].Role != "baseline" {
		t.Errorf("run roles = %q, %q", rep.Runs[0].Role, rep.Runs[1].Role)
	}
	if rep.Comparison == nil {
		t.Error("baseline run present but comparison missing")
	}
	for _, run := range rep.Runs {
		if err := run.Raw.CheckInvariants(); err != nil {
			t.Errorf("run %q: %v", run.Role, err)
		}
		if run.Derived.CPI <= 0 {
			t.Errorf("run %q: derived CPI = %g, want > 0", run.Role, run.Derived.CPI)
		}
	}
}

// TestJSONOmitsTextReport guards the schema contract in the other
// direction: -json output must be pure JSON, no text tables mixed in.
func TestJSONOmitsTextReport(t *testing.T) {
	out, code := runCLI(t,
		"-warm", "200000", "-measure", "200000", "-nobase", "-json")
	if code != 0 {
		t.Fatalf("exit code = %d; output:\n%s", code, out)
	}
	if !strings.HasPrefix(out, "{") {
		t.Errorf("-json output does not start with a JSON object:\n%s", out)
	}
	if strings.Contains(out, "epochs/1000 insts") {
		t.Errorf("text report leaked into -json output:\n%s", out)
	}
}

// TestRetiredTableFlagsRejected: ebcpsim has no way to save or load a
// correlation table, so a script still passing the old table flags must
// fail loudly at flag parsing rather than run with a cold table. The
// same holds for the retired -degree and -table-entries, now fields of
// -params: silently running the defaults would mislabel the result.
func TestRetiredTableFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-load-corrtab", "-save-corrtab", "-degree", "-table-entries"} {
		out, code := runCLI(t, flag, "x")
		if code == 0 {
			t.Errorf("%s x exited 0; output:\n%s", flag, out)
		}
		if !strings.Contains(out, "flag provided but not defined: "+flag) {
			t.Errorf("%s x: missing the unknown-flag diagnostic:\n%s", flag, out)
		}
	}
}

// TestEveryRegisteredPrefetcherRuns runs each registered contender
// through -prefetcher/-params with the parameter block of the first
// canonical-spec cell that names it (experiments in paper order, cells
// by name), so every name the usage string lists is one that runs.
func TestEveryRegisteredPrefetcherRuns(t *testing.T) {
	params := map[string]string{}
	for _, e := range exp.All() {
		sp, err := exp.CanonicalSpec(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]string, 0, len(sp.Cells))
		for name := range sp.Cells {
			cells = append(cells, name)
		}
		sort.Strings(cells)
		for _, cell := range cells {
			ref := sp.Cells[cell].Prefetcher
			if _, seen := params[ref.Name]; !seen {
				params[ref.Name] = string(ref.Params)
			}
		}
	}
	for _, name := range registry.PrefetcherNames() {
		p, ok := params[name]
		if !ok {
			t.Errorf("no canonical spec cell names %q", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			out, code := runCLI(t, "-prefetcher", name, "-params", p,
				"-warm", "1e5", "-measure", "1e5", "-nobase")
			if code != 0 {
				t.Errorf("-prefetcher %s -params %q exit code = %d; output:\n%s", name, p, code, out)
			}
			if !strings.Contains(out, "CPI") {
				t.Errorf("-prefetcher %s: no statistics in output:\n%s", name, out)
			}
		})
	}
}
