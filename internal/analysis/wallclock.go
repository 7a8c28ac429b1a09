package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// wallclockFuncs are the time-package functions that read or wait on
// the host clock. Pure constructors/constants (time.Duration, the
// Millisecond constant, time.Unix on an explicit value) are fine: they
// do not couple the simulation to the machine it runs on.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock flags wall-clock reads in simulated-time packages. The
// simulator's clock is nowUs, advanced by the event loop; any time.Now
// (or friends) on a sim path makes completions depend on host speed and
// breaks bit-identical replay. Legitimate uses — the Loop's TimeScale
// pacing, uptime reporting at the network edge — carry
// //diffkv:allow wallclock directives naming their reason.
var Wallclock = register(&Analyzer{
	Name: "wallclock",
	Doc:  "wall-clock reads (time.Now/Sleep/Since/...) in simulated-time packages",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := pkgCallee(pass.Pkg.TypesInfo, call, "time"); fn != nil && wallclockFuncs[fn.Name()] {
						pass.Reportf(call.Fun.Pos(), "time.%s reads the wall clock in a simulated-time package (use the nowUs sim clock, or annotate: //diffkv:allow wallclock -- <reason>)", fn.Name())
					}
				}
				return true
			})
		}
	},
})

// pkgCallee returns the package-level function of one of paths that
// call invokes, however the file imports it (named, renamed or dot), and
// nil for anything else: a method, a func value, or a local that shadows
// the package name.
func pkgCallee(info *types.Info, call *ast.CallExpr, paths ...string) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation: rand.N[int64](n)
		fun = ix.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil || !slices.Contains(paths, fn.Pkg().Path()) {
		return nil
	}
	return fn
}
