package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a loaded source tree: every non-test package under a module
// root, parsed and (optionally) typechecked.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path from go.mod ("diffkv").
	Path string
	// Fset positions every file in every package.
	Fset *token.FileSet
	// Packages are sorted by import path.
	Packages []*Package
	// Typed records that the go/types pass was asked for, which tells a
	// package that failed to typecheck from a load that never tried.
	Typed bool
}

// LoadOptions configures LoadModule.
type LoadOptions struct {
	// Types enables the go/types pass (source importer for stdlib
	// dependencies, the loaded packages themselves for module-internal
	// ones). When it fails for a package the package is still analyzed
	// syntactically — Package.TypeErr records why.
	Types bool
}

// LoadModule walks root (a directory inside a Go module), parses every
// non-test package outside testdata/hidden directories, attaches
// //diffkv:allow directives, and typechecks in dependency order when
// opts.Types is set.
func LoadModule(root string, opts LoadOptions) (*Module, error) {
	root, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet(), Typed: opts.Types}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Packages = append(m.Packages, pkg)
		}
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].ImportPath < m.Packages[j].ImportPath })
	if opts.Types {
		m.typecheck()
	}
	return m, nil
}

// LoadDir parses a single directory as a standalone package with no
// typechecking — the mode fixture tests and explicit-path vet runs use,
// and the mode that keeps the syntactic fallback honest.
func LoadDir(dir string) (*Module, *Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	m := &Module{Root: abs, Path: "", Fset: token.NewFileSet()}
	pkg, err := m.parseDir(abs)
	if err != nil {
		return nil, nil, err
	}
	if pkg == nil {
		return nil, nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	pkg.TypeErr = fmt.Errorf("standalone directory load: syntactic analysis only")
	m.Packages = []*Package{pkg}
	return m, pkg, nil
}

// findModule locates go.mod at or above dir and returns (moduleRoot,
// modulePath).
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
	}
}

// packageDirs lists every directory under root holding at least one
// non-test .go file, skipping hidden dirs, testdata and vendor.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(path)
		if path != root && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses dir's non-test files into a Package (nil when the
// directory holds none).
func (m *Module) parseDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: m.importPathFor(dir)}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(m.Fset, filename, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", filename, err)
		}
		pkg.Files = append(pkg.Files, file)
		pkg.Filenames = append(pkg.Filenames, filename)
		pkg.Directives = append(pkg.Directives, parseDirectives(m.Fset, file, src)...)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// importPathFor maps a directory to its import path under the module.
func (m *Module) importPathFor(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	if m.Path == "" {
		return filepath.ToSlash(rel)
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// typecheck runs go/types over the module in dependency order:
// module-internal imports resolve to the packages just checked, stdlib
// imports go through the source importer. Failures are per-package and
// non-fatal — the package keeps TypesInfo == nil and analyzers fall
// back to syntax.
func (m *Module) typecheck() {
	byPath := make(map[string]*Package, len(m.Packages))
	for _, p := range m.Packages {
		byPath[p.ImportPath] = p
	}
	// Topological order over module-internal imports (the go compiler
	// rejects cycles, so plain DFS is safe).
	var order []*Package
	state := make(map[string]int, len(m.Packages))
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				if q, ok := byPath[importPath(imp)]; ok {
					visit(q)
				}
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	for _, p := range m.Packages {
		visit(p)
	}

	srcImp := importer.ForCompiler(m.Fset, "source", nil)
	checked := make(map[string]*types.Package, len(order))
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return srcImp.Import(path)
	})
	for _, p := range order {
		p.Types, p.TypesInfo, p.TypeErr = checkPackage(m.Fset, p, imp)
		if p.Types != nil {
			checked[p.ImportPath] = p.Types
		}
	}
}

// checkPackage typechecks one package, recovering from source-importer
// panics (it parses arbitrary stdlib source) into a TypeErr.
func checkPackage(fset *token.FileSet, p *Package, imp types.Importer) (tp *types.Package, info *types.Info, err error) {
	defer func() {
		if r := recover(); r != nil {
			tp, info, err = nil, nil, fmt.Errorf("typecheck panic: %v", r)
		}
	}()
	info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect-and-continue; first error returned by Check
	}
	tp, err = conf.Check(p.ImportPath, fset, p.Files, info)
	if err != nil {
		return tp, nil, err
	}
	return tp, info, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
