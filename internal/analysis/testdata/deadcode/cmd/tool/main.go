// Command tool is the root of the deadcode fixture module: everything it
// names under internal/ is live, and nothing here is ever reported.
package main

import "diffkv/internal/lib"

func main() {
	var c lib.Counter
	bump := c.Bump // a method value, never called by name
	bump()
	var b lib.Box[string]
	b.Stash("x")
	b.Label = "y"
	_ = b.Unstash() + b.Labelled()
	var s lib.Stack
	s.Push(1)
	_ = lib.Used() + int(lib.NewShape().Area()) + len(lib.Sorted(nil))
	lib.AlsoUsed()
	_ = lib.Use(&lib.Fields{})
}

// notInternal has no caller, and is outside internal/: a root, not a finding.
func notInternal() {}
