package diffkv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneEngineDriver pins the cluster as the one driver of the serving
// engine: no product code outside internal/cluster builds a
// serving.Engine, so every serving run, one instance or many, goes
// through the cluster's event loop. Tests and benchmark/ (its own
// module) may still build an engine by hand.
func TestOneEngineDriver(t *testing.T) {
	var found []string
	inCluster := 0
	productFiles(t, func(fset *token.FileSet, path string, f *ast.File) {
		serving := importName(f, "diffkv/internal/serving")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var builds bool
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				x, ok := fun.X.(*ast.Ident)
				builds = ok && serving != "" && x.Name == serving && fun.Sel.Name == "NewEngine"
			case *ast.Ident:
				builds = f.Name.Name == "serving" && fun.Name == "NewEngine"
			}
			switch {
			case !builds:
			case strings.HasPrefix(path, "internal/cluster/"):
				inCluster++
			default:
				found = append(found, fset.Position(call.Pos()).String())
			}
			return true
		})
	})
	if inCluster == 0 {
		t.Fatal("found no serving.NewEngine call in internal/cluster: the walker or the match is broken")
	}
	if len(found) > 0 {
		t.Fatalf("serving.NewEngine called outside internal/cluster (run the engine as a one-instance cluster instead):\n%s",
			strings.Join(found, "\n"))
	}
}

// productFiles parses every non-test Go file of the module, skipping
// benchmark/ (a module of its own), testdata/ directories and hidden
// directories, and calls fn with each file's slash-separated path
// relative to the module root.
func productFiles(t *testing.T, fn func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == "benchmark" || name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(fset, filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importName returns the name f refers to the package at importPath by
// (its last path element unless renamed), or "" when f does not import
// it.
func importName(f *ast.File, importPath string) string {
	for _, spec := range f.Imports {
		if p, err := strconv.Unquote(spec.Path.Value); err != nil || p != importPath {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name
		}
		return importPath[strings.LastIndex(importPath, "/")+1:]
	}
	return ""
}
