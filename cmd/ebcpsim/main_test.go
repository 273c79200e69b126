package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"ebcp/internal/metrics"
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
		{"pb zero", []string{"-pb", "0"}, "-pb must be positive"},
		{"degree negative", []string{"-degree", "-1"}, "-degree must be positive"},
		{"warm negative", []string{"-warm", "-5"}, "-warm must be non-negative"},
		{"warm NaN", []string{"-warm", "NaN"}, "-warm must be non-negative"},
		{"measure zero", []string{"-measure", "0"}, "-measure must be positive"},
		{"measure Inf", []string{"-measure", "+Inf"}, "-measure must be positive"},
		{"max insts NaN", []string{"-max-insts", "NaN"}, "-max-insts must be non-negative"},
		{"max insts overflows uint64", []string{"-max-insts", "2e19"}, "-max-insts must be non-negative and below 2^64"},
		{"table entries zero", []string{"-table-entries", "0"}, "-table-entries must be positive"},
		{"bandwidth zero", []string{"-read-gbps", "0"}, "-read-gbps must be positive"},
		{"unknown workload", []string{"-workload", "nope"}, "nope"},
		{"unknown prefetcher", []string{"-prefetcher", "nope"}, "unknown prefetcher"},
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
// fail loudly at flag parsing rather than run with a cold table.
func TestRetiredTableFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-load-corrtab", "-save-corrtab"} {
		out, code := runCLI(t, flag, "x")
		if code == 0 {
			t.Errorf("%s x exited 0; output:\n%s", flag, out)
		}
		if !strings.Contains(out, "flag provided but not defined: "+flag) {
			t.Errorf("%s x: missing the unknown-flag diagnostic:\n%s", flag, out)
		}
	}
}
