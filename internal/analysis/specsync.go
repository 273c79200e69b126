package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SpecSync keeps internal/registry and the committed canonical specs
// (internal/exp/specs/*.json) from drifting apart. The spec files are
// data, so the compiler cannot catch a registry rename stranding a spec
// — this analyzer can. It fires on the registry package and checks, in
// both directions:
//
//   - every prefetcher a committed spec references is registered, and
//     every workload a spec's benchmarks field names is registered
//     (deleting or renaming a registry entry a spec still uses);
//   - every registered prefetcher is exercised by at least one
//     committed spec (the canonical set includes the full Figure 9
//     contender comparison, so an unreferenced registration means the
//     canonical coverage — or the registration — is wrong);
//   - each spec file's id equals its file name (which also makes ids
//     unique, since file names are).
//
// Spec files are parsed loosely here (plain encoding/json, unknown
// fields ignored): strict shape validation belongs to internal/spec and
// its tier-1 tests; this check only needs the names.
type SpecSync struct{}

// Name implements Analyzer.
func (SpecSync) Name() string { return "specsync" }

// looseSpec is the name-bearing subset of ebcp.spec/v1.
type looseSpec struct {
	ID         string   `json:"id"`
	Benchmarks []string `json:"benchmarks"`
	Cells      map[string]struct {
		Prefetcher struct {
			Name string `json:"name"`
		} `json:"prefetcher"`
	} `json:"cells"`
}

// registryNames is what Check extracts from the registry's builtin
// tables: each table's keys with their positions and the position of
// the table-building function (the anchor for spec-side findings about
// that table's namespace).
type registryNames struct {
	keys map[string]token.Position
	fn   token.Position
}

// Check implements Analyzer.
func (SpecSync) Check(p *Pkg) []Diagnostic {
	if p.Rel != "internal/registry" || len(p.Files) == 0 {
		return nil
	}
	prefs := collectBuiltins(p, "builtinPrefetchers")
	works := collectBuiltins(p, "builtinWorkloads")
	if prefs == nil || works == nil {
		return nil // not the real registry shape; nothing to sync
	}
	var out []Diagnostic

	// The spec files live at <module root>/internal/exp/specs. The root
	// is the package directory minus Rel — and when the package was
	// loaded from a fixture directory under a virtual Rel, the fixture
	// directory itself plays the root, so fixtures carry their own specs.
	pkgDir := filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)
	root := pkgDir
	if suffix := filepath.FromSlash(p.Rel); strings.HasSuffix(pkgDir, suffix) {
		root = strings.TrimSuffix(pkgDir, suffix)
	}
	specsDir := filepath.Join(root, "internal", "exp", "specs")

	filePos := p.Fset.Position(p.Files[0].Package) // the package clause
	entries, err := os.ReadDir(specsDir)
	if err != nil {
		out = append(out, Diagnostic{filePos, "specsync",
			fmt.Sprintf("cannot read the canonical spec directory: %v", err)})
		return out
	}
	referenced := map[string]bool{}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(specsDir, ent.Name()))
		if err != nil {
			out = append(out, Diagnostic{filePos, "specsync",
				fmt.Sprintf("spec %s: %v", ent.Name(), err)})
			continue
		}
		var sp looseSpec
		if err := json.Unmarshal(data, &sp); err != nil {
			out = append(out, Diagnostic{filePos, "specsync",
				fmt.Sprintf("spec %s is not parseable JSON: %v", ent.Name(), err)})
			continue
		}
		if want := strings.TrimSuffix(ent.Name(), ".json"); sp.ID != want {
			out = append(out, Diagnostic{filePos, "specsync",
				fmt.Sprintf("spec %s declares id %q; the id must equal the file name", ent.Name(), sp.ID)})
		}
		cells := make([]string, 0, len(sp.Cells))
		for name := range sp.Cells {
			cells = append(cells, name)
		}
		sort.Strings(cells)
		for _, cell := range cells {
			name := sp.Cells[cell].Prefetcher.Name
			referenced[name] = true
			if _, ok := prefs.keys[name]; !ok {
				out = append(out, Diagnostic{prefs.fn, "specsync",
					fmt.Sprintf("spec %s cell %q references unregistered prefetcher %q", ent.Name(), cell, name)})
			}
		}
		for _, b := range sp.Benchmarks {
			if _, ok := works.keys[b]; !ok {
				out = append(out, Diagnostic{works.fn, "specsync",
					fmt.Sprintf("spec %s names unregistered workload %q", ent.Name(), b)})
			}
		}
	}
	names := make([]string, 0, len(prefs.keys))
	for name := range prefs.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !referenced[name] {
			out = append(out, Diagnostic{prefs.keys[name], "specsync",
				fmt.Sprintf("registered prefetcher %q is not exercised by any canonical spec", name)})
		}
	}
	return out
}

// collectBuiltins finds the named table-building function and extracts
// every map-literal key with its position. A nil return means the
// function or its map literal is missing.
func collectBuiltins(p *Pkg, fnName string) *registryNames {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != fnName || fn.Body == nil {
				continue
			}
			r := &registryNames{keys: map[string]token.Position{}, fn: p.Fset.Position(fn.Pos())}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if _, isMap := lit.Type.(*ast.MapType); !isMap {
					return true
				}
				for _, el := range lit.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := stringLit(kv.Key)
					if !ok {
						continue
					}
					r.keys[key] = p.Fset.Position(kv.Key.Pos())
				}
				return false // the entry values hold no nested name maps
			})
			if len(r.keys) > 0 {
				return r
			}
		}
	}
	return nil
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
