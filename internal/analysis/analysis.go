// Package analysis is the repo's static-analysis driver: a stdlib-only
// (go/parser, go/ast, go/token, go/types, go/importer — no
// golang.org/x/tools) framework that loads the module's packages, type-
// checks them in dependency order with a module-local importer
// (typecheck.go), and runs a set of analyzers over them, reporting
// positioned diagnostics. It mechanically enforces the invariants the
// previous PRs established by convention: library code never panics,
// the annotated hot path never allocates, errors are classified through
// ebcperr, render/report paths are deterministic, and every schema codec
// keeps its strict-decode discipline.
//
// Two comment directives steer it (grammar documented in DESIGN.md §8):
//
//	//ebcp:hotpath
//	    In a function's doc comment: opts the function into the
//	    hotpathalloc analyzer's allocation ban.
//
//	//ebcp:allow <check>[,<check>] <justification>
//	    Suppresses the named checks. In a declaration's doc comment it
//	    covers the whole declaration; inline it covers its own line and
//	    the next. The justification is mandatory — an allow without one
//	    is itself a diagnostic — and an allow that suppresses nothing is
//	    a [staleallow] diagnostic, so suppression debt cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the diagnostic the way cmd/ebcplint prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Pkg is one loaded package: the parsed non-test files of a single
// directory, plus where that directory sits relative to the module root
// (slash-separated; "" for the root package). Analyzers scope their
// rules on Rel, so testdata packages can be loaded under a virtual path
// to exercise path-scoped rules.
//
// Types and Info are filled by the TypeChecker (typecheck.go); they are
// nil when the package failed to type-check. The checker has already
// reported positioned [typecheck] diagnostics for such a package, and
// Run skips it, so every analyzer may assume Info is filled.
type Pkg struct {
	Fset  *token.FileSet
	Rel   string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one check: it inspects a type-checked package and returns
// raw diagnostics. The driver applies //ebcp:allow suppression
// afterwards.
type Analyzer interface {
	Name() string
	Check(p *Pkg) []Diagnostic
}

// All returns every analyzer in the suite.
func All() []Analyzer {
	return []Analyzer{
		NoPanic{}, HotpathAlloc{}, ErrWrap{}, Determinism{}, ServeCtx{},
		CodecStrict{}, StaleAllow{},
	}
}

// StaleAllow is the suppression-debt check: an //ebcp:allow directive
// that suppressed zero diagnostics of its named checks is itself a
// diagnostic, so dead suppressions cannot accumulate. The logic lives
// in the driver (Run), which is the only place that knows what each
// directive suppressed; this marker's presence in the analyzer list is
// what switches the pass on, and a directive is only judged stale when
// every check it names was part of the run (a partial run cannot tell).
type StaleAllow struct{}

// Name implements Analyzer.
func (StaleAllow) Name() string { return "staleallow" }

// Check implements Analyzer; the driver owns the actual pass.
func (StaleAllow) Check(p *Pkg) []Diagnostic { return nil }

// Run executes the analyzers over the packages, drops diagnostics
// suppressed by //ebcp:allow directives, adds driver diagnostics for
// malformed directives (an allow without a justification) and for stale
// directives (when StaleAllow is in the analyzer list), and returns the
// remainder sorted by position. A package that failed to type-check
// (nil Info) is skipped whole: its [typecheck] diagnostics are all it
// reports, and its directives are neither parsed nor judged stale.
func Run(pkgs []*Pkg, analyzers []Analyzer) []Diagnostic {
	var out []Diagnostic
	allows := allowSet{}
	var typed []*Pkg
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		typed = append(typed, p)
		out = append(out, collectAllows(p, allows)...)
	}
	active := map[string]bool{}
	for _, a := range analyzers {
		active[a.Name()] = true
	}
	emit := func(d Diagnostic) {
		if dir := allows.match(d.Check, d.Pos); dir != nil {
			dir.used = true
			return
		}
		out = append(out, d)
	}
	for _, a := range analyzers {
		for _, p := range typed {
			for _, d := range a.Check(p) {
				emit(d)
			}
		}
	}
	if active["staleallow"] {
		for _, dirs := range allows {
			for _, dir := range dirs {
				if dir.used {
					continue
				}
				judgeable := true
				for _, c := range dir.checks {
					if !active[c] {
						judgeable = false // that analyzer did not run; can't tell
					}
				}
				if !judgeable {
					continue
				}
				emit(Diagnostic{dir.pos, "staleallow",
					fmt.Sprintf("ebcp:allow %s suppresses no diagnostics; delete it", strings.Join(dir.checks, ","))})
			}
		}
	}
	sortDiags(out)
	return out
}

// allowDirective is the parsed form of one //ebcp:allow comment: the
// checks it suppresses, the line span it covers within its file, and
// whether it actually suppressed anything this run (staleallow).
type allowDirective struct {
	checks   []string
	from, to int
	pos      token.Position
	used     bool
}

// allowSet holds every allow directive seen this run, keyed by filename.
type allowSet map[string][]*allowDirective

// match returns the first directive covering (check, pos), or nil.
func (s allowSet) match(check string, pos token.Position) *allowDirective {
	for _, d := range s[pos.Filename] {
		if pos.Line < d.from || pos.Line > d.to {
			continue
		}
		for _, c := range d.checks {
			if c == check {
				return d
			}
		}
	}
	return nil
}

const (
	allowPrefix   = "//ebcp:allow"
	hotpathMarker = "//ebcp:hotpath"
)

// collectAllows parses every //ebcp:allow directive in the package into
// set. A directive in a declaration's doc comment covers the
// declaration's whole line span; anywhere else it covers its own line
// and the next. Directives missing a check name or a justification come
// back as driver diagnostics instead of silently suppressing nothing.
func collectAllows(p *Pkg, set allowSet) []Diagnostic {
	var bad []Diagnostic
	for _, f := range p.Files {
		docSpan := docSpans(p.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				text := c.Text
				// A `// want` trailer is test-harness expectation text, not
				// part of the directive (and never its justification).
				if i := strings.Index(text, "// want"); i > 0 {
					text = strings.TrimRight(text[:i], " \t")
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //ebcp:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{pos, "allow", "ebcp:allow needs a check name and a justification"})
					continue
				}
				checks := strings.Split(fields[0], ",")
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{pos, "allow",
						fmt.Sprintf("ebcp:allow %s needs a justification", fields[0])})
					continue
				}
				d := &allowDirective{checks: checks, from: pos.Line, to: pos.Line + 1, pos: pos}
				if span, ok := docSpan[cg]; ok {
					d.from, d.to = span[0], span[1]
				}
				set[pos.Filename] = append(set[pos.Filename], d)
			}
		}
	}
	return bad
}

// docSpans maps each top-level declaration's doc comment group to the
// line span [doc start, decl end] it governs.
func docSpans(fset *token.FileSet, f *ast.File) map[*ast.CommentGroup][2]int {
	spans := map[*ast.CommentGroup][2]int{}
	add := func(doc *ast.CommentGroup, end token.Pos) {
		if doc == nil {
			return
		}
		spans[doc] = [2]int{fset.Position(doc.Pos()).Line, fset.Position(end).Line}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Doc, d.End())
		case *ast.GenDecl:
			add(d.Doc, d.End())
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					add(s.Doc, s.End())
				case *ast.TypeSpec:
					add(s.Doc, s.End())
				}
			}
		}
	}
	return spans
}

// isHotpath reports whether a function declaration carries the
// //ebcp:hotpath directive in its doc comment.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == hotpathMarker {
			return true
		}
	}
	return false
}
