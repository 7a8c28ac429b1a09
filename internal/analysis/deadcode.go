package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Deadcode flags top-level funcs, methods, types and vars that no
// non-test code can reach. It is a runner-level pass over the typed
// module (Run is nil; see deadcode below): packages where the check is
// Off — the root package, cmd/, examples/, benchmark/ — are roots
// together with main, init and package-level var initialisers, and
// every unreached declaration in a package where the check is on is a
// finding. Constants and struct fields are never reported.
var Deadcode = register(&Analyzer{
	Name: "deadcode",
	Doc:  "declarations under internal/ that only tests (or nothing) can reach",
})

// runtimeMethods are found by type assertion inside fmt and
// encoding/*, not through any identifier the use graph can see.
var runtimeMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// decl is one node of the use graph: a package-level object or method.
type decl struct {
	obj     types.Object
	pkg     *Package
	pos     token.Pos
	kind    string         // "func", "method", "type" or "var"; "" is never reported (constants, blanks)
	uses    []types.Object // every object named inside the declaration; marking skips the ones that are not nodes
	methods []*decl        // for a type: the methods declared on it
	live    bool
}

// deadcode builds the use graph from TypesInfo.Uses, marks what the
// roots reach and reports the rest. Interface satisfaction leaves no
// identifier behind, so a method of a live type stays live when any
// interface in the tree or in a (transitively) imported package has a
// method of that name: false negatives are acceptable, a false positive
// is a bug. Without types for every package there is no verdict, and
// deadcode returns false: an untyped load skips the check, a partly
// typed one is an error.
func deadcode(m *Module, cfg *Config, report func(*Package, Diagnostic)) bool {
	if !m.Typed {
		return false
	}
	for _, pkg := range m.Packages {
		if pkg.TypesInfo == nil {
			report(pkg, Diagnostic{Check: Deadcode.Name, Severity: Error, Pos: m.Fset.Position(pkg.Files[0].Package),
				Message: "package " + pkg.ImportPath + " did not typecheck (" + pkg.TypeErr.Error() + "); no reachability verdict on a partial graph"})
			return false
		}
	}

	nodes := map[types.Object]*decl{}
	var order, work []*decl
	add := func(pkg *Package, id *ast.Ident, kind string, within ast.Node, root bool) *decl {
		d := &decl{obj: pkg.TypesInfo.Defs[id], pkg: pkg, pos: id.Pos(), kind: kind}
		if d.obj == nil { // the blank identifier: nothing can name it, nothing to report
			d.kind = ""
		} else {
			nodes[d.obj] = d
		}
		ast.Inspect(within, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := origin(pkg.TypesInfo.Uses[id]); used != nil {
					d.uses = append(d.uses, used)
				}
			}
			return true
		})
		order = append(order, d)
		if root {
			work = append(work, d)
		}
		return d
	}
	ifaceMethods := map[string]bool{}
	seen := map[*types.Package]bool{}
	var scanInterfaces func(tp *types.Package)
	scanInterfaces = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceMethods[it.Method(i).Name()] = true
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			scanInterfaces(imp)
		}
	}
	for _, pkg := range m.Packages {
		scanInterfaces(pkg.Types)
		root := cfg.SeverityFor(Deadcode.Name, pkg.ImportPath) == Off
		for _, file := range pkg.Files {
			for _, gd := range file.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					if gd.Recv != nil {
						add(pkg, gd.Name, "method", gd, root)
					} else {
						add(pkg, gd.Name, "func", gd, root || gd.Name.Name == "main" || gd.Name.Name == "init")
					}
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(pkg, spec.Name, "type", spec, root)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								if gd.Tok == token.VAR {
									add(pkg, name, "var", spec, root || len(spec.Values) > 0) // initialisers run at start-up
									continue
								}
								// Constants are never reported, and an iota
								// enumerator names its type only on the first line.
								d := add(pkg, name, "", spec, root)
								if nt, ok := pkg.TypesInfo.TypeOf(name).(*types.Named); ok {
									d.uses = append(d.uses, nt.Obj())
								}
							}
						}
					}
				}
			}
		}
	}
	for _, d := range order {
		if fn, ok := d.obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if nt, ok := t.(*types.Named); ok && nodes[nt.Obj()] != nil {
					nodes[nt.Obj()].methods = append(nodes[nt.Obj()].methods, d)
				}
			}
		}
	}

	mark := func() {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			if d.live {
				continue
			}
			d.live = true
			for _, u := range d.uses {
				if n := nodes[u]; n != nil {
					work = append(work, n)
				}
			}
			for _, meth := range d.methods {
				if ifaceMethods[meth.obj.Name()] || runtimeMethods[meth.obj.Name()] {
					work = append(work, meth)
				}
			}
		}
	}
	mark()
	sort.Slice(order, func(i, j int) bool { return order[i].pos < order[j].pos })
	// An allowed declaration is kept on purpose, so what it uses is live.
	// Every allow is judged against the real roots before any of them
	// marks anything, so the verdicts do not depend on visiting order.
	for _, allowed := range []bool{true, false} {
		for _, d := range order {
			pos := m.Fset.Position(d.pos)
			if d.live || d.kind == "" || allowed != (matchDirective(d.pkg, Deadcode.Name, pos.Filename, pos.Line) != nil) {
				continue
			}
			report(d.pkg, Diagnostic{Check: Deadcode.Name, Severity: cfg.SeverityFor(Deadcode.Name, d.pkg.ImportPath), Pos: pos,
				Message: d.kind + " " + d.obj.Name() + " is reachable only from tests: delete it with them, or keep a test's observation point under //diffkv:allow deadcode -- <reason>"})
			if allowed {
				work = append(work, d)
			}
		}
		mark()
	}
	return true
}

// origin maps an instantiated generic func or method back to its
// declaration; every other object is its own origin.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
