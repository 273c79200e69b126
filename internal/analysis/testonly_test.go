package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// testOnlyExempt lists what TestNoTestOnlyCode accepts without a
// reference from a non-test file. A key is an import path, which exempts
// every declaration of that package, or an import path, a dot and a
// declaration name (Type.Method for a method). An entry that excuses no
// finding is stale and fails the test, as an unused //ebcp:allow does.
var testOnlyExempt = map[string]string{
	"ebcp":                                   "the root facade package: its consumers are programs outside the repository",
	"ebcp/internal/exp.Report.Value":         "a method of the facade's ExperimentReport alias, so its consumers are outside the repository too",
	"ebcp/internal/analysis.HotpathPackages": "a test helper that internal/sim's TestSteadyStateAllocs imports from another package",
	"ebcp/internal/trace.NewSlice":           "the in-memory trace source that tests in several packages replay",
	"ebcp/internal/serve.DecodeStatsV1":      "codecstrict requires a fuzzed decoder for StatsSchemaV1, and cmd/ebcpd's tests decode /metrics with it (DESIGN §10, Telemetry boundary)",
}

// TestNoTestOnlyCode fails on every function, method, package-level
// const and package-level var in a non-test file of the module (bench/
// included) that no non-test file references: code that only tests call
// is not part of the product, and belongs in the test package that uses
// it or nowhere. A declaration's references to itself do not count.
//
// A method that satisfies a method of an interface counts as used, since
// calls through the interface reach it, when the interface is error,
// fmt.Stringer, the Unwrap that errors.Is and errors.As call, or one the
// module's code names or writes: an interface it declares, named or
// anonymous, or the type of a value, parameter or result it uses, such
// as go/types.Importer.
func TestNoTestOnlyCode(t *testing.T) {
	pkgs, diags := typedModule(t)
	for _, d := range diags {
		t.Fatalf("the module must type-check before its references can be read: %s", d)
	}

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
		methodInterface("String", types.Typ[types.String]):                    true, // fmt.Stringer
		methodInterface("Unwrap", types.Universe.Lookup("error").Type()):      true, // errors.Unwrap's
	}
	type decl struct {
		obj types.Object
		pos token.Position
	}
	var decls []decl
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			addInterfaces(ifaces, tv.Type)
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				for _, unit := range declUnits(d) {
					own := declObjects(p, unit)
					for _, obj := range own {
						if !exemptByRole(p, obj) {
							decls = append(decls, decl{obj, p.Fset.Position(obj.Pos())})
						}
					}
					ast.Inspect(unit, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if obj := origin(p.Info.Uses[id]); obj != nil && !contains(own, obj) {
								used[obj] = true
							}
						}
						return true
					})
				}
			}
		}
	}

	excused := map[string]bool{}
	for _, d := range decls {
		if used[d.obj] || reachedThroughInterface(d.obj, ifaces) {
			continue
		}
		name := qualifiedName(d.obj)
		if _, ok := testOnlyExempt[name]; ok {
			excused[name] = true
			continue
		}
		if _, ok := testOnlyExempt[d.obj.Pkg().Path()]; ok {
			excused[d.obj.Pkg().Path()] = true
			continue
		}
		t.Errorf("%s: %s has no reference outside _test.go files: delete it, or move it into the test package that uses it", d.pos, name)
	}
	var keys []string
	for k := range testOnlyExempt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !excused[k] {
			t.Errorf("stale exemption %q: it excuses no test-only declaration; delete the entry", k)
		}
	}
}

// TestSimAssertsNoContenderCapability fails on a type assertion or type
// switch, in a non-test file of internal/sim, whose operand is a
// prefetch.Prefetcher and whose target is anything but
// interface{ ResetStats() }. A contender reaches the machine only
// through OnAccess and the Context it is handed; a capability the
// simulator discovered by assertion would be lost behind any wrapper
// that forwards OnAccess alone, and the wrapped contender would
// simulate a different machine without an error. ResetStats is the one
// exception: it clears statistics and never changes the machine.
func TestSimAssertsNoContenderCapability(t *testing.T) {
	pkgs, diags := typedModule(t)
	for _, d := range diags {
		t.Fatalf("the module must type-check before its assertions can be read: %s", d)
	}
	resetStats := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "ResetStats", types.NewSignatureType(nil, nil, nil, nil, nil, false)),
	}, nil).Complete()
	checked := false
	for _, p := range pkgs {
		if p.Types.Path() != "ebcp/internal/sim" {
			continue
		}
		checked = true
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok || !isPrefetcher(p.Info.TypeOf(ta.X)) {
					return true
				}
				if ta.Type == nil || !types.Identical(p.Info.TypeOf(ta.Type), resetStats) {
					t.Errorf("%s: internal/sim asserts a prefetch.Prefetcher to another capability; "+
						"give the contender a hook on the prefetch.Context instead", p.Fset.Position(ta.Pos()))
				}
				return true
			})
		}
	}
	if !checked {
		t.Fatal("package ebcp/internal/sim was not loaded")
	}
}

// paperMetrics are the names of the paper's derived metrics, each of
// which is one method of metrics.Snapshot.
var paperMetrics = map[string]bool{
	"CPI": true, "EPKI": true, "IFetchMPKI": true, "LoadMPKI": true, "Overlap": true,
	"Coverage": true, "Accuracy": true, "Timeliness": true, "Improvement": true, "EPIReduction": true,
}

// TestPaperMetricsHaveOneFormula fails on every method, in a non-test
// file outside internal/metrics, that is named after a paper metric. Each
// metric is one method of metrics.Snapshot, the run record every
// component counts into, so Derive, the experiment grids and the
// commands print the same bits; a second method of that name would be a
// second formula free to drift from the first.
func TestPaperMetricsHaveOneFormula(t *testing.T) {
	pkgs, diags := typedModule(t)
	for _, d := range diags {
		t.Fatalf("the module must type-check before its methods can be read: %s", d)
	}
	for _, p := range pkgs {
		if p.Types.Path() == "ebcp/internal/metrics" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !paperMetrics[fn.Name.Name] {
					continue
				}
				if obj := p.Info.Defs[fn.Name]; obj != nil {
					t.Errorf("%s: %s computes a paper metric outside internal/metrics; call the metrics.Snapshot method instead",
						p.Fset.Position(fn.Pos()), qualifiedName(obj))
				}
			}
		}
	}
}

// isPrefetcher reports whether t is the named interface
// ebcp/internal/prefetch.Prefetcher.
func isPrefetcher(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "ebcp/internal/prefetch" && named.Obj().Name() == "Prefetcher"
}

// declUnits splits a top-level declaration into the units whose
// references to themselves do not count: a function, or one spec of a
// const, var or type declaration.
func declUnits(d ast.Decl) []ast.Node {
	g, ok := d.(*ast.GenDecl)
	if !ok {
		return []ast.Node{d}
	}
	out := make([]ast.Node, len(g.Specs))
	for i, s := range g.Specs {
		out[i] = s
	}
	return out
}

// declObjects returns the function, method, consts or vars a unit
// defines.
func declObjects(p *Pkg, unit ast.Node) []types.Object {
	var out []types.Object
	switch u := unit.(type) {
	case *ast.FuncDecl:
		if obj := p.Info.Defs[u.Name]; obj != nil {
			out = append(out, obj)
		}
	case *ast.ValueSpec:
		for _, id := range u.Names {
			if obj := p.Info.Defs[id]; obj != nil && obj.Name() != "_" {
				out = append(out, obj)
			}
		}
	}
	return out
}

// addInterfaces records the interfaces with methods that a value of type
// t is, or that a function of type t takes or returns: a value passed
// into one has its methods called from wherever the interface is used,
// standard library included.
func addInterfaces(ifaces map[*types.Interface]bool, t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				addInterfaces(ifaces, tuple.At(i).Type())
			}
		}
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		ifaces[it] = true
	}
}

// exemptByRole reports whether the toolchain calls obj rather than
// code: init functions and a command's main.
func exemptByRole(p *Pkg, obj types.Object) bool {
	if _, ok := obj.(*types.Func); !ok {
		return false
	}
	return obj.Name() == "init" || obj.Name() == "main" && p.Name == "main"
}

// origin maps an instantiated generic function or field to its
// declaration, so a use of F[int] counts as a use of F.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func contains(objs []types.Object, obj types.Object) bool {
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

// reachedThroughInterface reports whether obj is a method that, with its
// receiver's method set, satisfies a method of one of ifaces.
func reachedThroughInterface(obj types.Object, ifaces map[*types.Interface]bool) bool {
	named := receiver(obj)
	if named == nil {
		return false
	}
	for it := range ifaces {
		if hasMethod(it, obj.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// receiver returns the named type a method is declared on, or nil when
// obj is not a method.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// methodInterface builds interface{ name() result }, the shape of
// fmt.Stringer and of the Unwrap that errors.Is and errors.As call.
func methodInterface(name string, result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// qualifiedName is obj's exemption key: its package's import path, a
// dot, and its name, with the receiver's type name before a method's.
func qualifiedName(obj types.Object) string {
	name := obj.Name()
	if named := receiver(obj); named != nil {
		name = named.Obj().Name() + "." + name
	}
	return obj.Pkg().Path() + "." + name
}
