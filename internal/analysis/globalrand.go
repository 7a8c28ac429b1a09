package analysis

import (
	"go/ast"
)

// globalRandFuncs are the math/rand (and v2) package-level functions
// that draw from or mutate the process-global generator. Constructors
// (New, NewSource, NewZipf, NewPCG, NewChaCha8) and type references
// (*rand.Rand, rand.Source) are exactly the pattern this check forces,
// so they are not listed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 names
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
}

// GlobalRand flags draws from math/rand's global generator. The global
// source is process-wide mutable state: any draw perturbs every other
// draw's sequence, so two experiments sharing a process stop being
// reproducible in isolation. Every random stream in diffkv must come
// from an explicitly seeded *rand.Rand threaded through the call chain
// (see internal/mathx/rng.go).
var GlobalRand = register(&Analyzer{
	Name: "globalrand",
	Doc:  "top-level math/rand draws (global generator) instead of a seeded *rand.Rand",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := pkgCallee(pass.Pkg.TypesInfo, call, "math/rand", "math/rand/v2"); fn != nil && globalRandFuncs[fn.Name()] {
						pass.Reportf(call.Fun.Pos(), "rand.%s draws from math/rand's global generator; seed an explicit *rand.Rand (rand.New(rand.NewSource(seed))) and thread it through", fn.Name())
					}
				}
				return true
			})
		}
	},
})
