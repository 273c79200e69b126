package analysis

import (
	"go/ast"
	"strings"
)

// Determinism enforces the byte-determinism contract (PR 1: reports are
// byte-identical for any worker count; PR 4: the same bytes feed the
// machine-readable reports). Three things break it silently:
//
//   - time.Now — wall-clock values leak into output
//   - the global math/rand functions — their shared state depends on
//     every other caller; seeded rand.New(rand.NewSource(...)) streams
//     are fine and are what workload generators use
//   - ranging over a map while writing/encoding in internal/{exp,metrics}
//     render and report paths — Go randomizes map iteration order, so
//     the bytes differ run to run unless the keys are sorted into a
//     slice first (which is then a slice range, not a map range)
//
// The first two rules cover all of internal/*; the map-range rule is
// scoped to the two packages that render output.
type Determinism struct{}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// globalRandFuncs are the package-level math/rand functions that share
// the global source. Constructors (New, NewSource, NewZipf) build
// explicitly-seeded streams and are allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// renderPathPkgs are the packages whose output must be byte-stable and
// where a map range feeding a writer is therefore a diagnostic.
var renderPathPkgs = map[string]bool{
	"internal/exp":     true,
	"internal/metrics": true,
}

// Check implements Analyzer.
func (Determinism) Check(p *Pkg) []Diagnostic {
	if !strings.HasPrefix(p.Rel, "internal/") {
		return nil
	}
	var out []Diagnostic
	fields := mapFields(p)
	for _, f := range p.Files {
		named, _ := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if selectorOn(n, named, "time", "Now") {
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "determinism",
						"time.Now leaks wall-clock state into a deterministic path"})
				}
				if globalRandFuncs[n.Sel.Name] && selectorOn(n, named, "math/rand", n.Sel.Name) {
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "determinism",
						"global math/rand." + n.Sel.Name + " shares unseeded state; use a rand.New(rand.NewSource(seed)) stream"})
				}
			case *ast.FuncDecl:
				if renderPathPkgs[p.Rel] && n.Body != nil {
					out = append(out, checkMapRanges(p, n, fields)...)
				}
			}
			return true
		})
	}
	return out
}

// mapFields collects, package-wide, the names of struct fields and
// named types with map type, so a range over s.cells or a value of a
// `type index map[...]` can be recognized without type-checking.
func mapFields(p *Pkg) map[string]bool {
	set := map[string]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if _, ok := n.Type.(*ast.MapType); ok {
					set[n.Name.Name] = true
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if isMapish(field.Type, set) {
						for _, name := range field.Names {
							set[name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return set
}

func isMapish(t ast.Expr, namedMaps map[string]bool) bool {
	switch t := t.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return namedMaps[t.Name]
	}
	return false
}

// checkMapRanges flags `for k := range m` statements where m is
// map-typed (by local inference or the package's map-field table) and
// the loop body reaches a writer or encoder — a Print/Fprint/Write/
// Encode/append call — meaning iteration order becomes output order.
func checkMapRanges(p *Pkg, fn *ast.FuncDecl, fields map[string]bool) []Diagnostic {
	locals := map[string]bool{}
	record := func(name string, t ast.Expr, rhs ast.Expr) {
		switch {
		case t != nil && isMapish(t, fields):
			locals[name] = true
		case rhs != nil && rhsIsMap(rhs, fields):
			locals[name] = true
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if isMapish(field.Type, fields) {
					locals[name.Name] = true
				}
			}
		}
	}
	var out []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						record(id.Name, nil, n.Rhs[i])
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							var rhs ast.Expr
							if i < len(vs.Values) {
								rhs = vs.Values[i]
							}
							record(name.Name, vs.Type, rhs)
						}
					}
				}
			}
		case *ast.RangeStmt:
			if rangedOverMap(n.X, locals, fields) {
				writesIO, appends := bodyWrites(n.Body)
				if writesIO || (appends && !fnSorts(fn)) {
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "determinism",
						"range over a map feeds a writer: iteration order is randomized; sort the keys into a slice first"})
				}
			}
		}
		return true
	})
	return out
}

// fnSorts reports whether the function calls something named Sort* —
// the sorted-keys idiom (collect into a slice, sort, range the slice)
// appends inside the map range and sorts afterwards, and is the
// sanctioned fix, not a violation.
func fnSorts(fn *ast.FuncDecl) bool {
	sorts := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if strings.HasPrefix(name, "Sort") || name == "Strings" || name == "Ints" || name == "Slice" {
			sorts = true
		}
		return !sorts
	})
	return sorts
}

func rhsIsMap(e ast.Expr, fields map[string]bool) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && id.Obj == nil && len(e.Args) > 0 {
			return isMapish(e.Args[0], fields)
		}
	case *ast.CompositeLit:
		return isMapish(e.Type, fields)
	}
	return false
}

func rangedOverMap(x ast.Expr, locals, fields map[string]bool) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return locals[x.Name] || (x.Obj == nil && fields[x.Name])
	case *ast.SelectorExpr:
		return fields[x.Sel.Name]
	}
	return false
}

// bodyWrites classifies what a loop body does with each map entry:
// writesIO when it calls anything that looks like a writer or encoder
// (a function or method whose name starts with Print, Fprint, Write,
// Encode or Marshal), and appends when it calls the append builtin
// (appending map entries in iteration order defers the nondeterminism
// to whoever consumes the slice, unless it is sorted afterwards).
func bodyWrites(body *ast.BlockStmt) (writesIO, appends bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		for _, prefix := range []string{"Print", "Fprint", "Write", "Encode", "Marshal"} {
			if strings.HasPrefix(name, prefix) {
				writesIO = true
			}
		}
		if name == "append" {
			appends = true
		}
		return true
	})
	return writesIO, appends
}
