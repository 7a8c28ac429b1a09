package analysis

import (
	"go/ast"
)

// Goroutine flags `go` statements and channel sends on the event-loop
// step path. A Step must be a pure function of (state, nowUs): spawning
// goroutines or handing work to channels inside it makes completion
// order depend on the Go scheduler, which is exactly the
// nondeterminism the pinned TestLoopMatchesStepDriven /
// TestChaosDeterministicTimeline tests exist to forbid. Step-path
// fan-out goes only through mathx.ForEach, outside these packages,
// under its contract: each item reads a stream position it was given
// (RNG.SplitAt, RNG.Ahead), writes only its own index, and the caller
// reduces in index order before the step goes on — so a generation
// step's tier draws and page plan run on many cores and stay a pure
// function of (state, nowUs). The Loop's own driver goroutine and wake
// channel live in these packages by design and carry
// //diffkv:allow goroutine directives.
var Goroutine = register(&Analyzer{
	Name: "goroutine",
	Doc:  "`go` statements / channel sends inside the event-loop step path",
	Run: func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(s.Pos(), "goroutine launched in a step-path package; steps must be single-goroutine (or annotate: //diffkv:allow goroutine -- <reason>)")
				case *ast.SendStmt:
					pass.Reportf(s.Pos(), "channel send in a step-path package; steps must not hand work to other goroutines (or annotate: //diffkv:allow goroutine -- <reason>)")
				}
				return true
			})
		}
	},
})
