package diffkv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPISurface pins the exported identifier list of package
// diffkv against a checked-in golden file, so a PR that silently drops,
// renames or accidentally exports a symbol fails CI with a readable
// diff. Regenerate intentionally with `go test -run PublicAPISurface
// -update`.
func TestPublicAPISurface(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var decls []string
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls = append(decls, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				kind := map[token.Token]string{
					token.TYPE: "type", token.VAR: "var", token.CONST: "const",
				}[d.Tok]
				if kind == "" {
					continue
				}
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							decls = append(decls, kind+" "+spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								decls = append(decls, kind+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(decls)
	got := fmt.Sprintf("// Exported surface of package diffkv (one identifier per line).\n// Regenerate: go test -run PublicAPISurface -update\n%s\n",
		strings.Join(decls, "\n"))

	path := filepath.Join("testdata", "api_surface.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run PublicAPISurface -update` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("public API surface changed.\nIf intentional, regenerate the golden with -update and call the change out in the PR.\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDocsNameExportedIdentifiers holds the prose to the pinned surface:
// every diffkv.X named in README.md, DESIGN.md or the package doc
// comment must be a line of api_surface.golden, so removing a name
// without its snippets fails here.
func TestDocsNameExportedIdentifiers(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "api_surface.golden"))
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if _, name, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "//") {
			exported[name] = true
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "diffkv.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	docs := [][2]string{{"diffkv.go package doc", f.Doc.Text()}}
	for _, name := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, [2]string{name, string(data)})
	}
	ref := regexp.MustCompile(`\bdiffkv\.([A-Z]\w*)`)
	for _, doc := range docs {
		for _, m := range ref.FindAllStringSubmatch(doc[1], -1) {
			if !exported[m[1]] {
				t.Errorf("%s names diffkv.%s, which package diffkv does not export", doc[0], m[1])
			}
		}
	}
}
