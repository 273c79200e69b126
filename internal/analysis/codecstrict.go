package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// CodecStrict enforces the schema-codec discipline every ebcp.*/v1
// format follows by convention (DESIGN.md "Schema-versioned artifacts"):
//
//	A. every json.NewDecoder in internal/* is configured with
//	   DisallowUnknownFields in the same function — a loose decoder
//	   silently accepts the typos strict ones reject;
//	B. every schema-version constant (a string const matching
//	   ebcp.<name>/v<N>) has a fuzz target in its package's tests that
//	   exercises it — directly or through a package function that
//	   references it — with a committed corpus under testdata/fuzz;
//	C. JSON encoding in internal/* routes through the one canonical
//	   encoder, metrics.WriteJSON (two-space indent, trailing newline,
//	   the byte form every golden and cache key depends on):
//	   json.NewEncoder and json.MarshalIndent are banned outside
//	   internal/metrics, which hosts it.
//
// Rule A and C resolve callees through go/types, so aliased imports
// can't dodge them. Rule B reads the package's _test.go files and
// corpus directories from disk: the contract is about committed
// artifacts, not just source shape.
type CodecStrict struct{}

// Name implements Analyzer.
func (CodecStrict) Name() string { return "codecstrict" }

// schemaConstRE matches the repo's schema-version string idiom.
var schemaConstRE = regexp.MustCompile(`^ebcp\.[a-z0-9-]+/v[0-9]+$`)

// Check implements Analyzer.
func (CodecStrict) Check(p *Pkg) []Diagnostic {
	if !strings.HasPrefix(p.Rel, "internal/") {
		return nil
	}
	var out []Diagnostic
	out = append(out, checkDecoders(p)...)
	out = append(out, checkEncoders(p)...)
	out = append(out, checkSchemaFuzz(p)...)
	return out
}

// checkDecoders is rule A: each function that constructs a
// json.NewDecoder must also call DisallowUnknownFields.
func checkDecoders(p *Pkg) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var newDecoders []token.Pos
			strict := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name, ok := calleePkgFunc(p.Info, call); ok && path == "encoding/json" {
					switch name {
					case "NewDecoder":
						newDecoders = append(newDecoders, call.Pos())
					case "DisallowUnknownFields":
						strict = true
					}
				}
				return true
			})
			if !strict {
				for _, pos := range newDecoders {
					out = append(out, Diagnostic{p.Fset.Position(pos), "codecstrict",
						"json.NewDecoder without DisallowUnknownFields; internal decoders reject unknown fields by contract"})
				}
			}
		}
	}
	return out
}

// checkEncoders is rule C: no hand-rolled canonical encoding outside
// internal/metrics.
func checkEncoders(p *Pkg) []Diagnostic {
	if p.Rel == "internal/metrics" {
		return nil // hosts the canonical encoder
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := calleePkgFunc(p.Info, call)
			if !ok || path != "encoding/json" {
				return true
			}
			if name == "NewEncoder" || name == "MarshalIndent" {
				out = append(out, Diagnostic{p.Fset.Position(call.Pos()), "codecstrict",
					fmt.Sprintf("json.%s bypasses the canonical encoder; route through metrics.WriteJSON", name)})
			}
			return true
		})
	}
	return out
}

// schemaConst is one ebcp.*/vN constant found in the package.
type schemaConst struct {
	name  string
	value string
	pos   token.Pos
}

// checkSchemaFuzz is rule B: every schema constant is exercised by a
// fuzz target with a committed corpus.
func checkSchemaFuzz(p *Pkg) []Diagnostic {
	consts := findSchemaConsts(p)
	if len(consts) == 0 {
		return nil
	}
	dir := filepath.Dir(p.Fset.Position(p.Files[0].Package).Filename)
	fuzzFns := parseFuzzTargets(dir)
	var out []Diagnostic
	for _, c := range consts {
		// Names of package functions whose bodies reference the constant:
		// a fuzz target covering one of those covers the constant.
		refs := map[string]bool{c.name: true}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if referencesName(fn.Body, map[string]bool{c.name: true}) {
					refs[fn.Name.Name] = true
				}
			}
		}
		covered := false
		corpusless := ""
		for _, fz := range fuzzFns {
			if !referencesName(fz.Body, refs) {
				continue
			}
			if corpusNonEmpty(filepath.Join(dir, "testdata", "fuzz", fz.Name.Name)) {
				covered = true
				break
			}
			corpusless = fz.Name.Name
		}
		switch {
		case covered:
		case corpusless != "":
			out = append(out, Diagnostic{p.Fset.Position(c.pos), "codecstrict",
				fmt.Sprintf("schema const %s (%q): fuzz target %s has no committed corpus under testdata/fuzz/%s",
					c.name, c.value, corpusless, corpusless)})
		default:
			out = append(out, Diagnostic{p.Fset.Position(c.pos), "codecstrict",
				fmt.Sprintf("schema const %s (%q) has no fuzz target exercising its codec", c.name, c.value)})
		}
	}
	return out
}

// findSchemaConsts returns the package's ebcp.*/vN string constants.
func findSchemaConsts(p *Pkg) []schemaConst {
	var out []schemaConst
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil || !schemaConstRE.MatchString(val) {
					continue
				}
				out = append(out, schemaConst{vs.Names[0].Name, val, vs.Names[0].Pos()})
			}
		}
	}
	return out
}

// parseFuzzTargets parses the directory's _test.go files (which the
// package loader deliberately skips) and returns their Fuzz* functions.
// Unparseable test files are ignored: rule B is about which committed
// targets exist, and a test file the go tool would reject fails the
// build long before lint.
func parseFuzzTargets(dir string) []*ast.FuncDecl {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	fset := token.NewFileSet()
	var out []*ast.FuncDecl
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				out = append(out, fn)
			}
		}
	}
	return out
}

// referencesName reports whether the body mentions any of the names as
// an identifier (which covers both bare uses and the Sel of a
// qualified use).
func referencesName(body *ast.BlockStmt, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && names[id.Name] {
			found = true
		}
		return true
	})
	return found
}

// corpusNonEmpty reports whether the corpus directory exists and holds
// at least one seed file.
func corpusNonEmpty(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() {
			return true
		}
	}
	return false
}
