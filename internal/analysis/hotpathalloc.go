package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces the steady-state allocation contract (PR 2,
// locked at runtime by TestSteadyStateAllocs): a function annotated
// //ebcp:hotpath may not contain the allocation sources that would put
// garbage on the per-record path —
//
//   - make / new calls
//   - map and slice composite literals (struct and fixed-array literals
//     are fine: they live on the stack)
//   - append to anything but a parameter slice (appending to a field or
//     local grows hidden state per call; amortized-growth buffers carry
//     an //ebcp:allow hotpathalloc with the amortization argument)
//   - closures capturing locals (the captured variable escapes)
//   - string <-> []byte conversions (each one copies)
//   - conversions of a concrete value to an interface type (the value
//     is boxed onto the heap)
//   - fmt calls (every operand is boxed into an interface)
//
// The analyzer is annotation-driven: it fires only inside functions the
// author declared hot, wherever they live. Everything resolves through
// go/types: conversions and literals by their types, so named
// map/slice/byte-slice types and interface boxing are caught, and
// append targets and captured variables by the objects their
// identifiers denote, so a shadowing local is never taken for a
// parameter.
type HotpathAlloc struct{}

// Name implements Analyzer.
func (HotpathAlloc) Name() string { return "hotpathalloc" }

// Check implements Analyzer.
func (HotpathAlloc) Check(p *Pkg) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fn) || fn.Body == nil {
				continue
			}
			out = append(out, checkHotFunc(p, fn)...)
		}
	}
	return out
}

func checkHotFunc(p *Pkg, fn *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	diag := func(pos token.Pos, msg string) {
		out = append(out, Diagnostic{p.Fset.Position(pos), "hotpathalloc", msg})
	}
	params := map[types.Object]bool{}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			params[p.Info.Defs[name]] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() {
				out = append(out, checkHotConversion(p, n, tv.Type)...)
				return true
			}
			switch obj := calleeObject(p.Info, n).(type) {
			case *types.Builtin:
				switch obj.Name() {
				case "make", "new":
					diag(n.Pos(), "hot path must not call "+obj.Name())
				case "append":
					if len(n.Args) > 0 && !isParamSlice(p.Info, n.Args[0], params) {
						diag(n.Pos(), "hot path append target is not a parameter slice")
					}
				}
			case *types.Func:
				if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
					diag(n.Pos(), "hot path fmt."+obj.Name()+" boxes its operands")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := p.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					diag(n.Pos(), "hot path map literal allocates")
				case *types.Slice:
					diag(n.Pos(), "hot path slice literal allocates")
				}
			}
		case *ast.FuncLit:
			if cap := capturedLocal(p.Info, fn, n); cap != "" {
				diag(n.Pos(), "hot path closure captures local "+cap)
				return false // one diagnostic per closure is enough
			}
		}
		return true
	})
	return out
}

// checkHotConversion flags conversions that copy or box: to string, to
// a byte/rune slice, or from a concrete type to an interface.
func checkHotConversion(p *Pkg, call *ast.CallExpr, dst types.Type) []Diagnostic {
	var out []Diagnostic
	diag := func(msg string) {
		out = append(out, Diagnostic{p.Fset.Position(call.Pos()), "hotpathalloc", msg})
	}
	var src types.Type
	if len(call.Args) == 1 {
		src = p.Info.Types[call.Args[0]].Type
	}
	srcBasic := func(kind types.BasicInfo) bool {
		if src == nil {
			return false
		}
		b, ok := src.Underlying().(*types.Basic)
		return ok && b.Info()&kind != 0
	}
	switch d := dst.Underlying().(type) {
	case *types.Basic:
		// string(x) copies unless x is already a string (a named-type
		// re-label, free at runtime).
		if d.Info()&types.IsString != 0 && !srcBasic(types.IsString) {
			diag("hot path string(...) conversion copies")
		}
	case *types.Slice:
		// []byte(s) / []rune(s) from a string copy; slice-to-slice
		// re-labels don't.
		if elem, ok := d.Elem().Underlying().(*types.Basic); ok && srcBasic(types.IsString) {
			switch elem.Kind() {
			case types.Byte:
				diag("hot path []byte(...) conversion copies")
			case types.Rune:
				diag("hot path []rune(...) conversion copies")
			}
		}
	case *types.Interface:
		if src == nil {
			break
		}
		if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			break // I(nil) stores no value; nothing is boxed
		}
		if _, ok := src.Underlying().(*types.Interface); !ok {
			diag("hot path interface conversion boxes its operand")
		}
	}
	return out
}

// isParamSlice reports whether an append target is (a re-slicing of) a
// bare identifier naming one of the function's parameters. Fields,
// locals and anything reached through a selector are per-call hidden
// state and stay banned.
func isParamSlice(info *types.Info, e ast.Expr, params map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return params[info.Uses[x]]
		default:
			return false
		}
	}
}

// capturedLocal returns the name of a variable declared in fn outside
// lit (a parameter, result, receiver or local) that lit's body
// references, or "" if the closure is capture-free. Package-level
// variables, struct fields and the closure's own declarations don't
// count.
func capturedLocal(info *types.Info, fn *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		inFn := v.Pos() >= fn.Pos() && v.Pos() < fn.End()
		inLit := v.Pos() >= lit.Pos() && v.Pos() < lit.End()
		if inFn && !inLit {
			found = id.Name
		}
		return true
	})
	return found
}
