package analysis

import (
	"go/ast"
	"strings"
)

// ErrWrap enforces the typed-error taxonomy (PR 3): errors built inside
// function bodies in internal/* and cmd/* must be classifiable — either
// constructed through the ebcperr package (Wrap/Invalidf/Cancelledf or
// a custom error type) or chained to an existing error with %w. A bare
// errors.New, or a fmt.Errorf whose format has no %w verb, produces an
// error no caller can branch on with errors.Is.
//
// Package-level var declarations are the sanctioned root sites for a
// package's own sentinels, so only function bodies are scanned. The
// ebcperr package itself is exempt: it is the root of the taxonomy.
//
// The check resolves callees through go/types, so it recognizes the
// actual errors.New and fmt.Errorf functions (and their error-typed
// results) under import aliases and dot-imports, and never fires on a
// local function that merely shares the name.
type ErrWrap struct{}

// Name implements Analyzer.
func (ErrWrap) Name() string { return "errwrap" }

// Check implements Analyzer.
func (ErrWrap) Check(p *Pkg) []Diagnostic {
	if !strings.HasPrefix(p.Rel, "internal/") && !strings.HasPrefix(p.Rel, "cmd/") {
		return nil
	}
	if p.Rel == "internal/ebcperr" {
		return nil
	}
	if p.Info == nil {
		return nil // failed to type-check; already reported by the driver
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, name, ok := calleePkgFunc(p.Info, call)
				if !ok {
					return true
				}
				if path == "errors" && name == "New" {
					out = append(out, Diagnostic{p.Fset.Position(call.Pos()), "errwrap",
						"errors.New inside a function is unclassifiable; use an ebcperr constructor or wrap a sentinel with %w"})
				}
				if path == "fmt" && name == "Errorf" && len(call.Args) > 0 {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && !strings.Contains(lit.Value, "%w") {
						out = append(out, Diagnostic{p.Fset.Position(call.Pos()), "errwrap",
							"fmt.Errorf without %w is unclassifiable; use an ebcperr constructor or wrap with %w"})
					}
				}
				return true
			})
		}
	}
	return out
}
