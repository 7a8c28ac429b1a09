package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `for ... range m` over a map in deterministic
// packages. Go randomizes map iteration order on purpose, so any loop
// whose effect depends on visit order (float accumulation, first-wins
// merges, appending rows to output) is a latent nondeterminism bug —
// the class that broke fig2's parallel run in PR 2. Two shapes are
// recognized as safe without a directive:
//
//   - key collection: every statement in the body appends to one slice,
//     and the enclosing function later sorts that slice (the canonical
//     sorted-keys pattern);
//   - map clearing: every statement is delete(m, k).
//
// Anything else needs sorted keys or a reasoned
// //diffkv:allow maprange directive (e.g. provably commutative integer
// counting).
var MapRange = register(&Analyzer{
	Name: "maprange",
	Doc:  "map iteration in deterministic packages without sorted keys",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMap(pass.Pkg.TypesInfo.TypeOf(rs.X)) {
					return true
				}
				if collectsKeysForSort(pass, file, rs) || clearsMap(rs) {
					return true
				}
				pass.Reportf(rs.Pos(), "map iteration order is randomized; iterate sorted keys (or annotate: //diffkv:allow maprange -- <reason>)")
				return true
			})
		}
	},
})

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// collectsKeysForSort recognizes the sorted-keys idiom: the range body
// only collects into a single slice — plain appends, possibly wrapped
// in if/continue filtering — and the enclosing function later passes
// that slice to sort.* / slices.Sort*.
func collectsKeysForSort(pass *Pass, file *ast.File, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	var slice string
	if !collectStmts(rs.Body.List, &slice) || slice == "" {
		return false
	}
	return sortFollows(file, rs, slice)
}

// collectStmts reports whether stmts contains nothing but appends to a
// single slice (named in *slice), if-filters around such appends, and
// continue statements.
func collectStmts(stmts []ast.Stmt, slice *string) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				return false
			}
			if *slice == "" {
				*slice = lhs.Name
			} else if *slice != lhs.Name {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil {
				return false
			}
			if !collectStmts(s.Body.List, slice) {
				return false
			}
			if s.Else != nil {
				eb, ok := s.Else.(*ast.BlockStmt)
				if !ok || !collectStmts(eb.List, slice) {
					return false
				}
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sortFollows reports whether, after the range statement, the enclosing
// function sorts `slice` (any sort.* or slices.* call taking it as an
// argument, or a method call on it whose name contains Sort).
func sortFollows(file *ast.File, rs *ast.RangeStmt, slice string) bool {
	var encl *ast.FuncDecl
	ast.Inspect(file, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil &&
			fd.Body.Pos() <= rs.Pos() && rs.End() <= fd.Body.End() {
			encl = fd
		}
		return true
	})
	var root ast.Node
	if encl != nil {
		root = encl.Body
	} else {
		root = file // range in a func literal at top level
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkgID, isIdent := sel.X.(*ast.Ident); isIdent && (pkgID.Name == "sort" || pkgID.Name == "slices") {
			for _, arg := range call.Args {
				if id, isID := arg.(*ast.Ident); isID && id.Name == slice {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// clearsMap recognizes `for k := range m { delete(m, k) }` (plus any
// extra delete statements) — order-independent by construction.
func clearsMap(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "delete" {
			return false
		}
	}
	return true
}
