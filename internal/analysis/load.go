package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ebcp/internal/ebcperr"
)

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: resolving %q: %v", dir, err)
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: no go.mod above %q", abs)
		}
		d = parent
	}
}

// LoadDir parses the non-test Go files of one directory into a Pkg. The
// rel argument is the package's path relative to the module root and is
// what path-scoped analyzer rules see — tests load testdata directories
// under a virtual rel (say "internal/exp") to trigger those rules.
// Directories with no buildable Go files return a nil Pkg and no error.
func LoadDir(fset *token.FileSet, dir, rel string) (*Pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: reading %q: %v", dir, err)
	}
	p := &Pkg{Fset: fset, Rel: rel}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: %v", err)
		}
		p.Name = f.Name.Name
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	return p, nil
}

// skipDir reports whether a directory subtree is outside the module's
// analyzable source: testdata (intentionally-violating fixtures),
// hidden and underscore directories, and vendored/VCS metadata.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule loads every package under the module root, in sorted
// directory order, into a fresh FileSet. Callers that will type-check
// must use LoadModuleFset with the TypeChecker's FileSet instead.
func LoadModule(root string) ([]*Pkg, error) {
	return LoadModuleFset(token.NewFileSet(), root)
}

// LoadModuleFset loads every package under the module root into fset,
// in sorted directory order.
func LoadModuleFset(fset *token.FileSet, root string) ([]*Pkg, error) {
	var pkgs []*Pkg
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		p, err := LoadDir(fset, path, rel)
		if err != nil {
			return err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return nil
	})
	if err != nil {
		return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: walking %q: %v", root, err)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Rel < pkgs[j].Rel })
	return pkgs, nil
}

// HotpathPackages returns the sorted rel paths of every package that
// contains at least one //ebcp:hotpath-annotated function. The
// steady-state allocation test asserts this set matches the packages it
// actually drives, so the annotations and the runtime test cannot
// drift apart.
func HotpathPackages(root string) ([]string, error) {
	pkgs, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range pkgs {
		if len(hotpathFuncs(p)) > 0 {
			out = append(out, p.Rel)
		}
	}
	return out, nil
}

// hotpathFuncs lists the //ebcp:hotpath-annotated declarations of a
// package.
func hotpathFuncs(p *Pkg) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && isHotpath(fn) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// RunModule is the one-call entry point used by cmd/ebcplint and the
// self-check test: load the module rooted above dir, type-check it, and
// run the full analyzer suite. Packages that fail type-checking come
// back as positioned [typecheck] diagnostics (so ebcplint exits
// non-zero) while the rest of the suite still runs over the packages
// that did check.
func RunModule(dir string) ([]Diagnostic, error) {
	pkgs, diags, err := loadTypedModule(dir)
	if err != nil {
		return nil, err
	}
	diags = append(diags, Run(pkgs, All())...)
	sortDiags(diags)
	return diags, nil
}

// loadTypedModule loads every package of the module rooted above dir
// and type-checks it with a fresh TypeChecker. It returns the packages
// and the [typecheck] diagnostics of those that failed; a failed
// package keeps nil Types and Info.
func loadTypedModule(dir string) ([]*Pkg, []Diagnostic, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, nil, err
	}
	tc, err := NewTypeChecker(root)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := LoadModuleFset(tc.Fset(), root)
	if err != nil {
		return nil, nil, err
	}
	return pkgs, tc.CheckModule(pkgs), nil
}
