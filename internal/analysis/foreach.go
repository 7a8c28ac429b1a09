package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ForEach flags a closure handed to mathx.ForEach that writes what it
// shares with the other items. ForEach's contract (internal/mathx) is that
// each item writes only its own result slot, and the caller reduces the
// slots in index order; a closure that sums into a captured float, sets a
// captured flag or appends to a captured slice makes the result depend on
// which worker ran first. So inside such a closure a variable declared
// outside it — a captured local or a package-level var — may be written
// only as v[e] (fields and elements below it included), with the index e
// built from at least one of the closure's own variables, and never when
// v is a map: concurrent map writes race whatever the key. A write is an
// assignment, ++/--, a range assignment, taking the variable's address or
// calling a pointer method on it. Closures handed to a wrapper that passes
// its func parameter straight to ForEach (experiments' Opts.forEach) are
// held to the same rule; wrappers are found per package, to a fixpoint. A
// package-level ForEach declared in the package under analysis stands for
// mathx's, so a standalone fixture can declare its own.
var ForEach = register(&Analyzer{
	Name: "foreach",
	Doc:  "a closure passed to mathx.ForEach writes a captured variable other than at an index of its own",
	Run:  runForEach,
})

// forEachPkg is the import path of the module's one worker pool.
const forEachPkg = "diffkv/internal/mathx"

func runForEach(pass *Pass) {
	info := pass.Pkg.TypesInfo
	// fans maps each function that runs a func argument on ForEach's
	// workers to that argument's index
	fans := make(map[*types.Func]int)
	fanArg := func(call *ast.CallExpr) (int, bool) {
		fn := calleeFunc(info, call)
		if fn == nil {
			return 0, false
		}
		if i, ok := fans[fn]; ok {
			return i, true
		}
		sig := fn.Type().(*types.Signature)
		if fn.Name() == "ForEach" && sig.Recv() == nil && sig.Params().Len() == 3 &&
			(fn.Pkg().Path() == forEachPkg || fn.Pkg() == pass.Pkg.Types) {
			return 2, true
		}
		return 0, false
	}
	for changed := true; changed; {
		changed = false
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := info.Defs[fd.Name].(*types.Func)
				if _, known := fans[fn]; !ok || known {
					continue
				}
				params := fn.Type().(*types.Signature).Params()
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					i, ok := fanArg(call)
					if !ok || i >= len(call.Args) {
						return true
					}
					id, ok := ast.Unparen(call.Args[i]).(*ast.Ident)
					if !ok {
						return true
					}
					for k := range params.Len() {
						if info.Uses[id] == params.At(k) {
							fans[fn], changed = k, true
						}
					}
					return true
				})
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if i, ok := fanArg(call); ok && i < len(call.Args) {
				if lit, ok := ast.Unparen(call.Args[i]).(*ast.FuncLit); ok {
					checkForEachClosure(pass, lit)
				}
			}
			return true
		})
	}
}

// calleeFunc returns the function or method a call names, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// checkForEachClosure reports every write in lit to a variable declared
// outside it that is not at an index built from lit's own variables.
func checkForEachClosure(pass *Pass, lit *ast.FuncLit) {
	info := pass.Pkg.TypesInfo
	local := func(obj types.Object) bool { return obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() }
	usesLocal := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil && local(info.Uses[id]) {
				found = true
			}
			return !found
		})
		return found
	}
	report := func(at ast.Node, name string) {
		pass.Reportf(at.Pos(), "closure passed to ForEach writes %s, which it shares with the other items; write only v[e] with e built from the closure's own variables (or annotate: //diffkv:allow foreach -- <reason>)", name)
	}
	// write checks one written expression, from its outermost index or
	// selector down to the variable it writes
	write := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() && !local(v) {
					report(x, "captured "+x.Name)
				}
				return
			case *ast.IndexExpr:
				if _, isMap := info.TypeOf(x.X).Underlying().(*types.Map); isMap {
					if id := rootIdent(x.X); id != nil {
						if v, ok := info.Uses[id].(*types.Var); ok && !local(v) {
							report(x, "captured map "+id.Name)
						}
					}
					return
				}
				if usesLocal(x.Index) {
					return
				}
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
					report(x, "package-level "+x.Sel.Name)
					return
				}
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				for _, lhs := range s.Lhs {
					write(lhs)
				}
			}
		case *ast.IncDecStmt:
			write(s.X)
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if e != nil {
						write(e)
					}
				}
			}
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				write(s.X)
			}
		case *ast.CallExpr:
			// a pointer method on an addressable value takes its address
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if m, ok := info.Uses[sel.Sel].(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil {
					_, ptrRecv := m.Type().(*types.Signature).Recv().Type().(*types.Pointer)
					t := info.TypeOf(sel.X)
					if _, ptrX := t.(*types.Pointer); ptrRecv && t != nil && !ptrX {
						write(sel.X)
					}
				}
			}
		}
		return true
	})
}

// rootIdent returns the variable an expression of selectors, indexes and
// dereferences starts from, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
