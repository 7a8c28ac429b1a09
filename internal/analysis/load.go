package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Every load in a process shares one FileSet and one source importer, so
// the standard library is typechecked from source once per process, not
// once per load; the importer's positions must live in the FileSet of
// the files that import it. stdMu serializes the importer, which is not
// safe for concurrent use.
var (
	sharedFset = token.NewFileSet()
	stdMu      sync.Mutex
	stdImp     = importer.ForCompiler(sharedFset, "source", nil)
)

// importStd imports a package from outside the loaded module.
func importStd(path string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.Import(path)
}

// Module is a loaded source tree: every non-test package under a module
// root, parsed and typechecked.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path from go.mod ("diffkv").
	Path string
	// Fset positions every file in every package.
	Fset *token.FileSet
	// Packages are sorted by import path.
	Packages []*Package
}

// LoadModule walks root (a directory inside a Go module), parses every
// non-test package outside testdata/hidden directories (the files go
// build compiles for the current GOOS and GOARCH), attaches
// //diffkv:allow directives, and typechecks in dependency order. A
// package that does not typecheck fails the load.
func LoadModule(root string) (*Module, error) {
	root, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: sharedFset}

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
	if err := m.typecheck(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadDir parses and typechecks a single directory as a standalone
// package named after it — the load fixture tests and explicit-path vet
// runs use. Its imports may name the standard library only.
func LoadDir(dir string) (*Module, *Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	m := &Module{Root: abs, Path: filepath.Base(abs), Fset: sharedFset}
	pkg, err := m.parseDir(abs)
	if err != nil {
		return nil, nil, err
	}
	if pkg == nil {
		return nil, nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	m.Packages = []*Package{pkg}
	if err := m.typecheck(); err != nil {
		return nil, nil, err
	}
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
			ok, err := buildFile(path, e)
			if err != nil {
				return err
			}
			if ok {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// buildFile reports whether e in dir is a non-test .go file that go
// build compiles for the current GOOS and GOARCH. go/build's MatchFile
// honours //go:build lines and _GOOS/_GOARCH name suffixes, so two files
// that declare one function under complementary constraints never meet
// in one load.
func buildFile(dir string, e os.DirEntry) (bool, error) {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return build.Default.MatchFile(dir, name)
}

// parseDir parses the non-test files go build compiles in dir into a
// Package (nil when the directory holds none).
func (m *Module) parseDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: m.importPathFor(dir)}
	for _, e := range ents {
		ok, err := buildFile(dir, e)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		filename := filepath.Join(dir, e.Name())
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
// imports go through the shared source importer. The first package that
// does not typecheck fails the load, named with its first type error.
func (m *Module) typecheck() error {
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

	checked := make(map[string]*types.Package, len(order))
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return importStd(path)
	})
	for _, p := range order {
		if err := checkPackage(m.Fset, p, imp); err != nil {
			return fmt.Errorf("package %s does not typecheck: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = p.Types
	}
	return nil
}

// checkPackage typechecks one package into p.Types and p.TypesInfo,
// recovering from source-importer panics (it parses arbitrary stdlib
// source) into an error.
func checkPackage(fset *token.FileSet, p *Package, imp types.Importer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("typecheck panic: %v", r)
		}
	}()
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect-and-continue; first error returned by Check
	}
	tp, err := conf.Check(p.ImportPath, fset, p.Files, info)
	if err != nil {
		return err
	}
	p.Types, p.TypesInfo = tp, info
	return nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func importPath(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	return s
}
