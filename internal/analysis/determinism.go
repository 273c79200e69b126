package analysis

import (
	"go/ast"
	"go/types"
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
//   - ranging over a map in internal/{exp,metrics} render and report
//     paths unless the body only collects into slices sorted afterwards
//     — Go randomizes map iteration order, so anything else built in the
//     loop differs run to run (sort the keys into a slice first)
//
// The first two rules cover all of internal/*; the map-range rule is
// scoped to the two packages that render output. Every rule resolves
// through go/types: time.Now and the rand functions by the object a
// reference denotes, whatever the import is named and whether or not
// it is called, and map ranges by the range expression's type,
// wherever that map was declared.
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
// where a map range that exposes its iteration order is a diagnostic.
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
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// time.Now, called or not: report once, at the selector.
				if msg := nondeterministicRef(p.Info.Uses[n.Sel]); msg != "" {
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "determinism", msg})
					return false
				}
			case *ast.Ident:
				// A bare reference: the package was dot-imported.
				if msg := nondeterministicRef(p.Info.Uses[n]); msg != "" {
					out = append(out, Diagnostic{p.Fset.Position(n.Pos()), "determinism", msg})
				}
			case *ast.FuncDecl:
				if renderPathPkgs[p.Rel] && n.Body != nil {
					out = append(out, checkMapRanges(p, n)...)
				}
			}
			return true
		})
	}
	return out
}

// nondeterministicRef returns the diagnostic for a reference to
// time.Now or to a global math/rand function, and "" for any other
// object. Methods never match: (*rand.Rand).Float64 reads a seeded
// stream.
func nondeterministicRef(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch path, name := fn.Pkg().Path(), fn.Name(); {
	case path == "time" && name == "Now":
		return "time.Now leaks wall-clock state into a deterministic path"
	case path == "math/rand" && globalRandFuncs[name]:
		return "global math/rand." + name + " shares unseeded state; use a rand.New(rand.NewSource(seed)) stream"
	}
	return ""
}

// checkMapRanges flags `for k := range m` statements where m's type is
// a map (its underlying type, so named map types and map-typed fields,
// results and values of any package count) unless the loop body only
// appends to slices that are all sorted afterwards. Anything else — a
// write, an encoder call, a string or a sum built in the loop, an
// unsorted slice — can make iteration order output order.
func checkMapRanges(p *Pkg, fn *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := p.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		appended, ok := appendOnly(p.Info, rs.Body)
		if !ok || !sortedAfter(p.Info, fn, rs, appended) {
			out = append(out, Diagnostic{p.Fset.Position(rs.Pos()), "determinism",
				"range over a map does more than collect into sorted slices: iteration order is randomized; sort the keys into a slice first"})
		}
		return true
	})
	return out
}

// sortedAfter reports whether every slice appended to inside the map
// range rs is passed to a sort call later in fn: the sorted-keys idiom
// (collect into a slice, sort it, range the slice) appends inside the
// map range, and is the sanctioned fix, not a violation. Sorting some
// other slice fixes nothing, so the slices are matched by the
// types.Object they denote; an append target that denotes no object
// (an element of a slice of slices, say) is never proven sorted.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, rs *ast.RangeStmt, appended []types.Object) bool {
	sorted := map[types.Object]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 || !isSortCall(info, call) {
			return true
		}
		if obj := sliceObject(info, call.Args[0]); obj != nil {
			sorted[obj] = true
		}
		return true
	})
	for _, obj := range appended {
		if obj == nil || !sorted[obj] {
			return false
		}
	}
	return true
}

// isSortCall reports whether call sorts its first argument in place:
// sort.Strings, Ints, Float64s, Slice, SliceStable, Sort and Stable, and
// the slices.Sort family.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	path, name, ok := calleePkgFunc(info, call)
	switch {
	case !ok:
		return false
	case path == "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case path == "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

// sliceObject returns the object a slice expression denotes — the
// variable of `keys`, the field of `t.keys` — looking through parentheses
// and conversions such as sort.StringSlice(keys), or nil when it
// denotes none.
func sliceObject(info *types.Info, e ast.Expr) types.Object {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sliceObject(info, e.Args[0])
		}
	}
	return nil
}

// appendOnly reports whether every statement of a map range's body is
// `s = append(s, ...)`, and lists the slices appended to (appending map
// entries in iteration order defers the nondeterminism to whoever
// consumes the slice, unless it is sorted afterwards). The builtin is
// recognized through Info.Uses, so a local function that happens to be
// named append is not one.
func appendOnly(info *types.Info, body *ast.BlockStmt) (appended []types.Object, ok bool) {
	for _, st := range body.List {
		as, isAssign := st.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil, false
		}
		call, isCall := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !isCall || len(call.Args) == 0 {
			return nil, false
		}
		if b, isBuiltin := calleeObject(info, call).(*types.Builtin); !isBuiltin || b.Name() != "append" {
			return nil, false
		}
		target := sliceObject(info, call.Args[0])
		if target == nil || sliceObject(info, as.Lhs[0]) != target {
			return nil, false
		}
		appended = append(appended, target)
	}
	return appended, true
}
