package ebcp

import (
	"errors"
	"strings"
	"testing"
)

// The root package is a facade; these tests exercise the public API the
// way the examples and a downstream user would.

func TestBenchmarksRegistry(t *testing.T) {
	all := Benchmarks()
	if len(all) != 4 {
		t.Fatalf("expected the paper's four benchmarks, got %d", len(all))
	}
	wantNames := []string{"Database", "TPC-W", "SPECjbb2005", "SPECjAppServer2004"}
	for i, b := range all {
		if b.Name != wantNames[i] {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, wantNames[i])
		}
		if _, err := BenchmarkByName(b.Name); err != nil {
			t.Errorf("BenchmarkByName(%q): %v", b.Name, err)
		}
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	bench := SPECjbb2005()
	cfg := DefaultSystem(bench)
	cfg.WarmInsts, cfg.MeasureInsts = 3e6, 3e6

	base := must(Run(must(NewTrace(bench)), Baseline(), cfg))
	if base.CPI() <= 0 {
		t.Fatal("baseline CPI must be positive")
	}
	pf := must(NewEBCP(TunedEBCP()))
	res := must(Run(must(NewTrace(bench)), pf, cfg))
	if res.Prefetcher != "EBCP" {
		t.Errorf("prefetcher name = %q", res.Prefetcher)
	}
	if res.CPI() >= base.CPI() {
		t.Errorf("EBCP (CPI %.3f) should beat baseline (CPI %.3f) even at short windows",
			res.CPI(), base.CPI())
	}
}

// TestPublicPrefetcherConstructors builds every contender through
// NewPrefetcher with the parameter blocks of the committed specs (fig9's
// for the paper's comparison, frontier's defaults for the rest), and
// pins the error contract for unknown names and bad blocks.
func TestPublicPrefetcherConstructors(t *testing.T) {
	cases := []struct{ name, params, want string }{
		{"none", ``, "none"},
		{"ghb-small", `{"degree": 6}`, "GHB small"},
		{"ghb-large", `{"degree": 6}`, "GHB large"},
		{"tcp-small", `{"degree": 6}`, "TCP small"},
		{"tcp-large", `{"degree": 6}`, "TCP large"},
		{"stream", `{"streams": 32, "degree": 6}`, "stream"},
		{"sms", ``, "SMS"},
		{"solihin", `{"depth": 3, "width": 2, "table_entries": 1048576}`, "Solihin 3,2"},
		{"solihin", `{"depth": 6, "width": 1, "table_entries": 1048576}`, "Solihin 6,1"},
		{"ebcp", `{"degree": 6, "table_max_addrs": 6, "minus": true}`, "EBCP minus"},
		{"ebcp", `{"degree": 6, "table_max_addrs": 6}`, "EBCP"},
		{"chain", ``, "chain 4,4"},
		{"hermes", ``, "Hermes 24"},
	}
	for _, c := range cases {
		pf, err := NewPrefetcher(c.name, []byte(c.params), 0)
		if err != nil {
			t.Errorf("NewPrefetcher(%q, %s): %v", c.name, c.params, err)
			continue
		}
		if pf.Name() != c.want {
			t.Errorf("NewPrefetcher(%q, %s).Name() = %q, want %q", c.name, c.params, pf.Name(), c.want)
		}
	}
	for _, bad := range []struct{ name, params, want string }{
		{"markov", ``, `unknown prefetcher "markov"`},
		{"ghb-small", `{"degre": 6}`, `unknown field "degre"`},
		{"ghb-small", `{"degree": 0}`, "degree"},
	} {
		_, err := NewPrefetcher(bad.name, []byte(bad.params), 0)
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("NewPrefetcher(%q, %s) error = %v, want ErrInvalidConfig mentioning %q", bad.name, bad.params, err, bad.want)
		}
	}
}

func TestIdealizedConfig(t *testing.T) {
	cfg := IdealizedEBCP()
	if cfg.TableEntries != 8<<20 || cfg.TableMaxAddrs != 32 || cfg.Degree != 32 {
		t.Errorf("idealized config = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	if !strings.HasPrefix(must(NewEBCP(cfg)).Name(), "EBCP") {
		t.Error("name")
	}
}

func TestCustomPrefetcherImplementsInterface(t *testing.T) {
	// A user-defined prefetcher (next-line) must plug into Run.
	bench := Database()
	cfg := DefaultSystem(bench)
	cfg.WarmInsts, cfg.MeasureInsts = 1e6, 2e6
	res := must(Run(must(NewTrace(bench)), nextLine{}, cfg))
	if res.Prefetcher != "next-line" {
		t.Errorf("name = %q", res.Prefetcher)
	}
	if res.PF.Issued == 0 {
		t.Error("custom prefetcher issued nothing")
	}
}

// nextLine is the examples/custom prefetcher, duplicated here as an
// interface-compliance check.
type nextLine struct{}

func (nextLine) Name() string { return "next-line" }

func (nextLine) OnAccess(a Access, ctx *PrefetchContext) {
	if a.Miss && !a.IFetch {
		ctx.Prefetch(a.Now, a.Line.Add(1), NoTableIndex)
	}
}

func TestExperimentFacade(t *testing.T) {
	all := Experiments()
	if len(all) < 8 {
		t.Fatalf("expected >= 8 experiments, got %d", len(all))
	}
	e, err := ExperimentByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewExperimentSession(ExperimentOptions{Warm: 5e5, Measure: 5e5})
	rep := e.Run(s)
	if rep.ID != "table1" || len(rep.Rows) == 0 {
		t.Errorf("report = %+v", rep.ID)
	}
	if _, ok := rep.Value("CPI overall", "Database"); !ok {
		t.Error("missing Database CPI")
	}
}
