package prefetch

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
)

func checkInvalid(t *testing.T, name string, f func() error) {
	t.Helper()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panicked (%v), want typed error", name, r)
			}
		}()
		return f()
	}()
	switch {
	case err == nil:
		t.Errorf("%s: accepted, want error", name)
	case !errors.Is(err, ebcperr.ErrInvalidConfig):
		t.Errorf("%s: error %q not classified ErrInvalidConfig", name, err)
	case len(err.Error()) < 10:
		t.Errorf("%s: message %q not descriptive", name, err)
	}
}

func TestNegativeConfigs(t *testing.T) {
	cases := []struct {
		name string
		f    func() error
	}{
		{"GHB zero index", func() error { _, err := NewGHB("g", 0, 1024, 6); return err }},
		{"GHB zero buffer", func() error { _, err := NewGHB("g", 1024, 0, 6); return err }},
		{"GHB negative degree", func() error { _, err := NewGHB("g", 1024, 1024, -1); return err }},
		{"TCP non-pow2 THT", func() error { _, err := NewTCP("t", 100, 2048, 16, 6); return err }},
		{"TCP zero PHT ways", func() error { _, err := NewTCP("t", 128, 2048, 0, 6); return err }},
		{"stream zero streams", func() error { _, err := NewStream(0, 6); return err }},
		{"stream zero degree", func() error { _, err := NewStream(32, 0); return err }},
		{"Solihin zero depth", func() error { _, err := NewSolihin(0, 2, 1<<20); return err }},
		{"Solihin bad table", func() error { _, err := NewSolihin(3, 2, 3000); return err }},
		{"GHB small negative degree", func() error { _, err := GHBSmall(-1); return err }},
		{"GHB large negative degree", func() error { _, err := GHBLarge(-1); return err }},
		{"TCP small zero degree", func() error { _, err := TCPSmall(0); return err }},
		{"TCP large zero degree", func() error { _, err := TCPLarge(0); return err }},
		{"chain zero window", func() error {
			_, err := NewChain(ChainConfig{Entries: 1024, Successors: 8, Window: 0, Degree: 4})
			return err
		}},
		{"chain window over cap", func() error {
			_, err := NewChain(ChainConfig{Entries: 1024, Successors: 8, Window: 65, Degree: 4})
			return err
		}},
		{"chain zero degree", func() error {
			_, err := NewChain(ChainConfig{Entries: 1024, Successors: 8, Window: 4, Degree: 0})
			return err
		}},
		{"chain degree over successors", func() error {
			_, err := NewChain(ChainConfig{Entries: 1024, Successors: 8, Window: 4, Degree: 9})
			return err
		}},
		{"chain non-pow2 entries", func() error {
			_, err := NewChain(ChainConfig{Entries: 1000, Successors: 8, Window: 4, Degree: 4})
			return err
		}},
		{"chain table non-pow2 entries", func() error { _, err := NewChainTable(ChainTableConfig{Entries: 3, Successors: 4}); return err }},
		{"chain table zero successors", func() error { _, err := NewChainTable(ChainTableConfig{Entries: 16, Successors: 0}); return err }},
		{"chain table successors over cap", func() error { _, err := NewChainTable(ChainTableConfig{Entries: 16, Successors: 65}); return err }},
		{"Hermes zero table bits", func() error {
			_, err := NewHermes(hermesWith(func(c *HermesConfig) { c.TableBits = 0 }), 1)
			return err
		}},
		{"Hermes table bits over cap", func() error {
			_, err := NewHermes(hermesWith(func(c *HermesConfig) { c.TableBits = 21 }), 1)
			return err
		}},
		{"Hermes zero activation", func() error {
			_, err := NewHermes(hermesWith(func(c *HermesConfig) { c.ActivationThreshold = 0 }), 1)
			return err
		}},
		{"Hermes zero training margin", func() error {
			_, err := NewHermes(hermesWith(func(c *HermesConfig) { c.TrainingThreshold = 0 }), 1)
			return err
		}},
		{"Hermes zero early cycles", func() error {
			_, err := NewHermes(hermesWith(func(c *HermesConfig) { c.EarlyCycles = 0 }), 1)
			return err
		}},
		{"Hermes history bits over cap", func() error {
			_, err := NewHermes(hermesWith(func(c *HermesConfig) { c.HistoryBits = 65 }), 1)
			return err
		}},
		{"filter nil inner", func() error { _, err := NewFilter(nil, DefaultFilterConfig()); return err }},
		{"filter non-pow2 table", func() error {
			_, err := NewFilter(None{}, filterWith(func(c *FilterConfig) { c.TableEntries = 1000 }))
			return err
		}},
		{"filter threshold over 100", func() error {
			_, err := NewFilter(None{}, filterWith(func(c *FilterConfig) { c.ThresholdPct = 101 }))
			return err
		}},
		{"filter zero probe", func() error {
			_, err := NewFilter(None{}, filterWith(func(c *FilterConfig) { c.Probe = 0 }))
			return err
		}},
		{"filter zero retry", func() error {
			_, err := NewFilter(None{}, filterWith(func(c *FilterConfig) { c.Retry = 0 }))
			return err
		}},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}

func hermesWith(mut func(*HermesConfig)) HermesConfig {
	cfg := DefaultHermesConfig()
	mut(&cfg)
	return cfg
}

func filterWith(mut func(*FilterConfig)) FilterConfig {
	cfg := DefaultFilterConfig()
	mut(&cfg)
	return cfg
}

// TestNegativeCoversAllConstructors audits this file against the
// package surface: every exported constructor — a top-level exported
// function returning (value, error), codecs excluded — must appear in
// TestNegativeConfigs's case table, so a new contender cannot land
// without its invalid-geometry contract being pinned.
func TestNegativeCoversAllConstructors(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var constructors []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue
				}
				if strings.HasPrefix(fn.Name.Name, "Decode") || strings.HasPrefix(fn.Name.Name, "Encode") {
					continue // codecs have their own rejection suites
				}
				res := fn.Type.Results
				if res == nil || len(res.List) != 2 {
					continue
				}
				last, ok := res.List[1].Type.(*ast.Ident)
				if !ok || last.Name != "error" {
					continue
				}
				constructors = append(constructors, fn.Name.Name)
			}
		}
	}
	if len(constructors) < 10 {
		t.Fatalf("surface scan found only %d constructors (%v) — scan broken?", len(constructors), constructors)
	}

	src, err := os.ReadFile("negative_test.go")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(constructors)
	for _, name := range constructors {
		if !regexp.MustCompile(`\b` + name + `\(`).Match(src) {
			t.Errorf("exported constructor %s has no negative-config case in this file", name)
		}
	}
}
