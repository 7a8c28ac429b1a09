package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Deadcode flags top-level funcs, methods, types and vars that no
// non-test code can reach, and struct fields that no non-test code reads
// or sets. It is a runner-level pass over the typed module (Run is nil;
// see deadcode below): packages where the check is Off — cmd/,
// examples/scenario, benchmark/ — are roots together with main, init
// and package-level var initialisers, and every unreached declaration
// in a package where the check is on (the root package and internal/) is
// a finding, as is every field of a reached declaration there that is
// never read or never set (see deadFields). Constants are never
// reported.
var Deadcode = register(&Analyzer{
	Name: "deadcode",
	Doc:  "declarations in the root package or under internal/ that only tests (or nothing) can reach, and fields nothing reads or sets",
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
// identifier behind, so a live type keeps every method, declared or
// promoted, that T or *T uses to implement an interface declared in the
// tree or in a (transitively) imported package. Where either side is an
// uninstantiated generic the check falls back to the method's name:
// false negatives are acceptable, a false positive is a bug.
func deadcode(m *Module, cfg *Config, report func(*Package, Diagnostic)) {
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
	ifacesByMethod := map[string][]types.Type{} // every named interface declaring the method
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
						ifacesByMethod[it.Method(i).Name()] = append(ifacesByMethod[it.Method(i).Name()], tn.Type())
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			scanInterfaces(imp)
		}
	}
	fields := &fieldUses{read: map[*types.Var]bool{}, written: map[*types.Var]bool{}, lhs: map[*ast.Ident]bool{}, seen: map[types.Type]bool{}}
	for _, pkg := range m.Packages {
		scanInterfaces(pkg.Types)
		root := cfg.SeverityFor(Deadcode.Name, pkg.ImportPath) == Off
		fields.info = pkg.TypesInfo
		for _, file := range pkg.Files {
			fields.walk(file, nil)
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
				if runtimeMethods[meth.obj.Name()] {
					work = append(work, meth)
				}
			}
			if tn, ok := d.obj.(*types.TypeName); ok {
				for _, fn := range satisfying(tn.Type(), ifacesByMethod) {
					if n := nodes[fn]; n != nil {
						work = append(work, n)
					}
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
	deadFields(m, cfg, order, fields, report)
}

// satisfying returns the methods in *T's method set that implement some
// interface in ifacesByMethod for T or *T, each mapped to its
// declaration. A method promoted from an embedded field counts, since
// the embedding type may satisfy an interface its field alone does not.
func satisfying(t types.Type, ifacesByMethod map[string][]types.Type) []types.Object {
	ptr := types.NewPointer(t)
	ms := types.NewMethodSet(ptr)
	implements := map[types.Type]bool{}
	var out []types.Object
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		for _, in := range ifacesByMethod[fn.Name()] {
			ok, known := implements[in]
			if !known {
				// types.Implements is unspecified for an uninstantiated
				// generic on either side: keep the method by name
				ok = isGeneric(in) || isGeneric(t) || types.Implements(ptr, in.Underlying().(*types.Interface))
				implements[in] = ok
			}
			if ok {
				out = append(out, origin(fn))
				break
			}
		}
	}
	return out
}

// isGeneric reports whether t is a named type with type parameters
// still unbound.
func isGeneric(t types.Type) bool {
	nt, ok := t.(*types.Named)
	return ok && nt.TypeParams().Len() > 0 && nt.TypeArgs().Len() == 0
}

// origin maps an instantiated generic func or method back to its
// declaration; every other object is its own origin.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// deadFields reports each field of a reached named struct type in a
// checked package that no non-test code reads, or that none sets (so it
// always holds its zero value). Reflection reads and sets what it
// reaches: a tagged field, and the fields of a struct compared whole,
// used as a map key or converted to an interface with no methods, are
// never reported, nor are embedded and blank fields. A generic
// instantiation's fields are its origin's.
func deadFields(m *Module, cfg *Config, decls []*decl, u *fieldUses, report func(*Package, Diagnostic)) {
	for _, d := range decls {
		sev := cfg.SeverityFor(Deadcode.Name, d.pkg.ImportPath)
		tn, ok := d.obj.(*types.TypeName)
		if !ok || tn.IsAlias() || !d.live || sev == Off {
			continue
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		for i := 0; st != nil && i < st.NumFields(); i++ {
			f, msg := st.Field(i), ""
			switch {
			case f.Embedded() || f.Name() == "_" || st.Tag(i) != "":
			case !u.read[f]:
				msg = "is never read outside tests: delete it and what computes it, or keep a test's observation point under //diffkv:allow deadcode -- <reason>"
			case !u.written[f]:
				msg = "is never set outside tests, so it always holds its zero value: make it a constant"
			}
			if msg != "" {
				report(d.pkg, Diagnostic{Check: Deadcode.Name, Severity: sev, Pos: m.Fset.Position(f.Pos()),
					Message: "field " + f.Name() + " of " + tn.Name() + " " + msg})
			}
		}
	}
}

// fieldUses collects which fields non-test code reads and which it sets.
type fieldUses struct {
	info          *types.Info // of the package being walked
	read, written map[*types.Var]bool
	lhs           map[*ast.Ident]bool // field names in write-only position
	seen          map[types.Type]bool // types reflect followed deep
}

// walk records the field uses in n, inside a function of signature sig.
// Pre-order visiting marks an assignment's targets and a literal's keys
// before their identifiers are seen.
func (u *fieldUses) walk(n ast.Node, sig *types.Signature) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				u.walk(n.Body, u.info.Defs[n.Name].Type().(*types.Signature))
			}
			return false
		case *ast.FuncLit:
			u.walk(n.Body, u.info.TypeOf(n).(*types.Signature))
			return false
		case *ast.Ident:
			if v := field(u.info.Uses[n]); v != nil && !u.lhs[n] {
				u.read[v] = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				u.set(lhs, true)
				if to := u.info.TypeOf(lhs); n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) && to != nil { // nil: the blank identifier
					u.convert(to, n.Rhs[i])
				}
			}
		case *ast.IncDecStmt:
			u.set(n.X, true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				u.set(n.X, false)
			}
		case *ast.SelectorExpr: // x.f.M for a pointer method M takes &x.f
			if fn, ok := u.info.Uses[n.Sel].(*types.Func); ok && fn.Signature().Recv() != nil && isPointer(fn.Signature().Recv().Type()) && !isPointer(u.info.TypeOf(n.X)) {
				u.set(n.X, false)
			}
		case *ast.CompositeLit:
			u.literal(n)
		case *ast.CallExpr:
			tv := u.info.Types[n.Fun]
			fs, ok := tv.Type.Underlying().(*types.Signature)
			switch {
			case tv.IsType():
				u.convert(tv.Type, n.Args[0])
			case ok && !strings.HasPrefix(types.ExprString(n.Fun), "sort.Slice"): // which only moves whole elements
				last := fs.Params().Len() - 1
				for i, arg := range n.Args {
					to := fs.Params().At(min(i, last)).Type()
					if fs.Variadic() && i >= last && !n.Ellipsis.IsValid() {
						to = to.(*types.Slice).Elem()
					}
					u.convert(to, arg)
				}
			}
		case *ast.ReturnStmt:
			for i := 0; sig.Results().Len() == len(n.Results) && i < len(n.Results); i++ {
				u.convert(sig.Results().At(i).Type(), n.Results[i])
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				u.reflect(u.info.TypeOf(n.X), false)
				u.reflect(u.info.TypeOf(n.Y), false)
			}
		case *ast.IndexExpr:
			if mt, ok := u.info.TypeOf(n.X).Underlying().(*types.Map); ok {
				u.reflect(mt.Key(), false)
			}
		}
		return true
	})
}

// set records the field e selects as written: the outermost selector of
// an assignment's target (lhs), which is not also a read, or of an
// address taken. Setting x.a.f or x.a[i] sets the value field a with it.
func (u *fieldUses) set(e ast.Expr, lhs bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v := field(u.info.Uses[x.Sel]); v != nil {
				u.written[v], u.lhs[x.Sel] = true, lhs
				if e = x.X; !isPointer(u.info.TypeOf(e)) {
					continue
				}
			}
		case *ast.IndexExpr:
			if _, ok := u.info.TypeOf(x.X).Underlying().(*types.Array); ok {
				e = x.X
				continue
			}
		}
		return
	}
}

// literal records a composite literal's fields as written, and converts
// its elements to their element types.
func (u *fieldUses) literal(lit *ast.CompositeLit) {
	t := u.info.TypeOf(lit).Underlying()
	if p, ok := t.(*types.Pointer); ok { // an elided &T{...}
		t = p.Elem().Underlying()
	}
	for i, el := range lit.Elts {
		kv, keyed := el.(*ast.KeyValueExpr)
		if keyed {
			el = kv.Value
		}
		switch t := t.(type) {
		case *types.Struct:
			f := t.Field(i)
			if keyed {
				f = u.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
				u.lhs[kv.Key.(*ast.Ident)] = true
			}
			u.written[f.Origin()] = true
			u.convert(f.Type(), el)
		case *types.Map:
			u.reflect(t.Key(), false)
			u.convert(t.Elem(), el)
		case interface{ Elem() types.Type }: // slice or array
			u.convert(t.Elem(), el)
		}
	}
}

// convert marks the fields of e's type used when e becomes an interface
// with no methods.
func (u *fieldUses) convert(to types.Type, e ast.Expr) {
	if it, ok := to.Underlying().(*types.Interface); ok && it.NumMethods() == 0 && !types.IsInterface(u.info.TypeOf(e)) {
		u.reflect(u.info.TypeOf(e), true)
	}
}

// reflect marks every field of t read and written, through arrays and
// struct fields and, when deep, through pointers, slices and maps.
func (u *fieldUses) reflect(t types.Type, deep bool) {
	if t == nil || deep && u.seen[t] {
		return
	}
	u.seen[t] = u.seen[t] || deep
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		u.reflect(t.Underlying(), deep)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i).Origin()
			u.read[f], u.written[f] = true, true
			u.reflect(t.Field(i).Type(), deep)
		}
	case *types.Map:
		if deep {
			u.reflect(t.Key(), deep)
			u.reflect(t.Elem(), deep)
		}
	case interface{ Elem() types.Type }: // an array, or when deep a pointer, slice or channel
		if _, array := t.(*types.Array); array || deep {
			u.reflect(t.Elem(), deep)
		}
	}
}

// field returns obj's declaration when it is a struct field.
func field(obj types.Object) *types.Var {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
