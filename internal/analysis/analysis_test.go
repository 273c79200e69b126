package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureChecker is the one TypeChecker every fixture test shares: it
// memoizes the standard library and the real module's packages, so the
// expensive source-importer work is paid once per `go test` run instead
// of once per fixture.
var (
	fixtureOnce sync.Once
	fixtureTC   *TypeChecker
	fixtureErr  error
)

func fixtureChecker(t *testing.T) *TypeChecker {
	t.Helper()
	fixtureOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureTC, fixtureErr = NewTypeChecker(root)
	})
	if fixtureErr != nil {
		t.Fatalf("building fixture type checker: %v", fixtureErr)
	}
	return fixtureTC
}

// The real module, loaded and type-checked once per `go test` run for
// the tests that read all of it (TestSelfCheck, TestNoTestOnlyCode).
var (
	moduleOnce  sync.Once
	modulePkgs  []*Pkg
	moduleDiags []Diagnostic
	moduleErr   error
)

// typedModule returns the module's packages and the [typecheck]
// diagnostics of those that failed, the load RunModule analyzes.
func typedModule(t *testing.T) ([]*Pkg, []Diagnostic) {
	t.Helper()
	moduleOnce.Do(func() {
		modulePkgs, moduleDiags, moduleErr = loadTypedModule(".")
	})
	if moduleErr != nil {
		t.Fatalf("loading the module: %v", moduleErr)
	}
	return modulePkgs, append([]Diagnostic(nil), moduleDiags...)
}

// Check type-checks one package (typically a testdata fixture loaded
// under a virtual Rel) against the module: its ebcp/... imports resolve
// to the real module packages, loaded from disk on demand. The package
// registers under a synthetic "fixture/<on-disk dir>" path — keyed by
// directory, not Rel, because two fixtures may share a virtual Rel and
// must not clobber each other — so it can never shadow a real module
// package either.
// Returns the positioned [typecheck] diagnostics; empty means Info and
// Types are filled. Re-checking the same fixture directory adopts the
// first check's facts instead of minting a second generation of types.
func (tc *TypeChecker) Check(p *Pkg) []Diagnostic {
	path := "fixture/" + p.Rel
	if len(p.Files) > 0 {
		path = "fixture/" + filepath.ToSlash(filepath.Dir(tc.fset.Position(p.Files[0].Package).Filename))
	}
	e := tc.register(path, p)
	if e.state == 2 && !e.fail {
		return nil // already checked; register adopted the facts
	}
	e.state = 0
	e.fail = false
	start := len(tc.diags)
	tc.checkEntry(path, e)
	out := append([]Diagnostic(nil), tc.diags[start:]...)
	sortDiags(out)
	return out
}

// loadFixture parses one testdata directory under a virtual module
// path, so path-scoped rules (errwrap's internal/*, determinism's
// render-path packages) fire exactly as they would on real code, and
// type-checks it against the real module so the type-aware analyzers
// see resolved objects. Fixtures are expected to type-check; the
// deliberately-broken one has its own test.
func loadFixture(t *testing.T, dir, virtualRel string) *Pkg {
	t.Helper()
	tc := fixtureChecker(t)
	p, err := LoadDir(tc.Fset(), filepath.Join("testdata", dir), virtualRel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if p == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	if diags := tc.Check(p); len(diags) > 0 {
		for _, d := range diags {
			t.Error(d.String())
		}
		t.Fatalf("fixture %s does not type-check", dir)
	}
	return p
}

// TestAnalyzerGoldens runs the full suite over each fixture package and
// checks the diagnostics against the fixtures' // want expectations —
// both directions: every want must be produced, and nothing beyond the
// wants may appear (which is also what proves the //ebcp:allow
// suppression cases suppress).
func TestAnalyzerGoldens(t *testing.T) {
	fixtures := []struct {
		dir string
		rel string
	}{
		{"nopanic", "internal/lib"},
		{"hotpathalloc", "internal/hot"},
		{"errwrap", "internal/fake"},
		{"determinism", "internal/exp"},
		{"driver", "internal/driver"},
		{"servectx", "internal/fakeserve"},
		{"codecstrict", "internal/codec"},
		{"staleallow", "internal/stale"},
	}
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			p := loadFixture(t, fx.dir, fx.rel)
			diags := Run([]*Pkg{p}, All())
			for _, problem := range CheckExpectations(p, diags) {
				t.Error(problem)
			}
		})
	}
}

// TestSelfCheck is the gate the Makefile and CI rely on: the analyzer
// suite over the real module must be clean. A failure here lists the
// same file:line:col diagnostics ebcplint would print.
func TestSelfCheck(t *testing.T) {
	pkgs, diags := typedModule(t)
	diags = append(diags, Run(pkgs, All())...)
	sortDiags(diags)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuppressionScopes pins the two //ebcp:allow coverage shapes: a
// doc-comment allow spans its whole declaration, an inline allow only
// its own line and the next.
func TestSuppressionScopes(t *testing.T) {
	p := loadFixture(t, "nopanic", "internal/lib")
	diags := Run([]*Pkg{p}, []Analyzer{NoPanic{}})
	for _, d := range diags {
		if strings.Contains(d.Message, "sanctioned") {
			t.Errorf("suppressed site leaked: %s", d)
		}
	}
}

// TestTypeLoadFailure is the loader-failure regression: a package that
// does not type-check must yield positioned [typecheck] diagnostics —
// never a panic, never a silent skip — its Info must stay nil so the
// driver skips it, and its unused //ebcp:allow must not be judged stale
// (an untyped package proves nothing about suppression).
func TestTypeLoadFailure(t *testing.T) {
	tc := fixtureChecker(t)
	p, err := LoadDir(tc.Fset(), filepath.Join("testdata", "broken"), "internal/broken")
	if err != nil {
		t.Fatalf("loading broken fixture: %v", err)
	}
	diags := tc.Check(p)
	if len(diags) == 0 {
		t.Fatal("broken fixture type-checked cleanly; want [typecheck] diagnostics")
	}
	for _, d := range diags {
		if d.Check != "typecheck" {
			t.Errorf("loader diagnostic has check %q, want \"typecheck\": %s", d.Check, d)
		}
		if !strings.HasSuffix(d.Pos.Filename, "broken.go") || d.Pos.Line <= 0 {
			t.Errorf("loader diagnostic is not positioned in the fixture: %s", d)
		}
	}
	if p.Info != nil || p.Types != nil {
		t.Error("failed package kept partial type facts; Info and Types must stay nil")
	}
	// The full suite over the untyped package must neither panic nor
	// report anything: the driver skips nil-Info packages, so no
	// analyzer runs and the fixture's unused allow is never judged.
	for _, d := range Run([]*Pkg{p}, All()) {
		t.Errorf("unexpected diagnostic on untyped package: %s", d)
	}
}

// TestHotpathPackages locks the package set the //ebcp:hotpath
// annotations span; internal/sim's TestSteadyStateAllocs asserts the
// same set, so the annotations and the runtime alloc test stay coupled.
func TestHotpathPackages(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	got, err := HotpathPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/cache",
		"internal/corrtab",
		"internal/cpu",
		"internal/prefetch",
		"internal/sim",
		"internal/trace",
		"internal/workload",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("hotpath-annotated packages:\n  got  %v\n  want %v", got, want)
	}
}

// TestDiagnosticFormat pins the output contract cmd/ebcplint prints:
// file:line:col: [check] message.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Check:   "nopanic",
		Message: "no",
	}
	if got, want := d.String(), "a/b.go:3:7: [nopanic] no"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}
