package ebcp

import (
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

func TestPublicPrefetcherConstructors(t *testing.T) {
	cons := map[string]Prefetcher{
		"GHB small":   must(NewGHBSmall(6)),
		"GHB large":   must(NewGHBLarge(6)),
		"TCP small":   must(NewTCPSmall(6)),
		"TCP large":   must(NewTCPLarge(6)),
		"stream":      must(NewStream(6)),
		"SMS":         NewSMS(),
		"Solihin 3,2": must(NewSolihin(3, 2)),
		"Solihin 6,1": must(NewSolihin(6, 1)),
		"EBCP minus":  must(NewEBCPMinus(TunedEBCP())),
	}
	for want, pf := range cons {
		if pf.Name() != want {
			t.Errorf("Name() = %q, want %q", pf.Name(), want)
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
