package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic enforces the library error-handling contract (DESIGN.md
// "Error handling contract", PR 3): non-test library code returns typed
// errors — it never calls panic, os.Exit or log.Fatal*. Commands
// (anything under cmd/ and any package main, which includes examples/)
// are exempt: exiting is their job.
//
// The check is type-aware: every identifier resolves through go/types,
// so method values (`f := os.Exit`), aliased imports (`import o "os"`),
// dot-imports and shadowing all fall out of object identity instead of
// name heuristics — a local function named Exit is not os.Exit, and a
// local variable named panic is not the builtin.
type NoPanic struct{}

// Name implements Analyzer.
func (NoPanic) Name() string { return "nopanic" }

// fatalFuncs maps package path → function names that terminate the
// process. Referencing one at all (call or method value) is a
// diagnostic.
var fatalFuncs = map[string]map[string]bool{
	"os":  {"Exit": true},
	"log": {"Fatal": true, "Fatalf": true, "Fatalln": true, "Panic": true, "Panicf": true, "Panicln": true},
}

// isFatalFunc reports whether obj is one of the process-terminating
// functions.
func isFatalFunc(obj types.Object) (pkg, name string, ok bool) {
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if names, found := fatalFuncs[fn.Pkg().Path()]; found && names[fn.Name()] {
		return fn.Pkg().Path(), fn.Name(), true
	}
	return "", "", false
}

// Check implements Analyzer.
func (NoPanic) Check(p *Pkg) []Diagnostic {
	if p.Name == "main" || p.Rel == "cmd" || strings.HasPrefix(p.Rel, "cmd/") {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		// Selector uses (os.Exit, o.Exit, log.Fatalf as a method value)
		// report once at the selector; their Sel idents are skipped below
		// so one reference yields one diagnostic.
		viaSelector := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if path, name, ok := isFatalFunc(p.Info.Uses[n.Sel]); ok {
					viaSelector[n.Sel] = true
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "nopanic",
						fmt.Sprintf("library code must not reference %s.%s", path, name)})
				}
			case *ast.Ident:
				if viaSelector[n] {
					return true
				}
				obj := p.Info.Uses[n]
				if b, ok := obj.(*types.Builtin); ok && b.Name() == "panic" {
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "nopanic",
						"library code must return a typed error, not panic"})
				}
				if path, name, ok := isFatalFunc(obj); ok {
					// A bare fatal identifier means the package was
					// dot-imported: same call, no package prefix.
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "nopanic",
						fmt.Sprintf("library code must not reference %s.%s (dot-imported)", path, name)})
				}
			}
			return true
		})
	}
	return out
}
