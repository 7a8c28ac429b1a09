// Package lib is a diffkv-vet fixture: the deadcode check over a typed
// mini-module whose only non-test root is cmd/tool.
package lib

import "sort"

// Used is called from cmd/tool, and keeps its unexported helper alive.
func Used() int { return helper() + int(KindB) + len(registry) }

func helper() int { return 1 }

// OnlyTests is called from lib_test.go alone, its helper from it alone.
func OnlyTests() int { return onlyTestsHelper() } // want "func OnlyTests is reachable only from tests"

func onlyTestsHelper() int { return 2 } // want "func onlyTestsHelper is reachable only from tests"

// Orphan is never constructed: the type and its every method are dead.
type Orphan struct{ n int } // want "type Orphan is reachable only from tests"

func (o *Orphan) Value() int { return o.n } // want "method Value is reachable only from tests"

// Shape is a module interface. Square is only ever used through it, so no
// identifier names Square.Area; the method set keeps it.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want "method Perimeter is reachable only from tests"

func NewShape() Shape { return Square{Side: 2} }

// byLen satisfies sort.Interface, declared in an imported stdlib package.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func Sorted(xs []string) []string {
	sort.Sort(byLen(xs))
	return xs
}

// The registration idiom: nobody names Alpha, but its initialiser runs at
// start-up and is what reaches register.
var registry []string

func register(name string) string {
	registry = append(registry, name)
	return name
}

var Alpha = register("alpha")

var spare int // want "var spare is reachable only from tests"

// Kind's zero enumerator is never named; deleting it would renumber the rest.
type Kind int

const (
	KindNone Kind = iota
	KindA
	KindB
)

// Box is generic: cmd/tool reaches Stash and Unstash through Box[string].
type Box[T any] struct{ v T }

func (b *Box[T]) Stash(v T) { b.v = v }

func (b *Box[T]) Unstash() T { return b.v }

func (b *Box[T]) Glance() T { return b.v } // want "method Glance is reachable only from tests"

// Counter.Bump is only ever taken as a method value.
type Counter struct{ n int }

func (c *Counter) Bump() { c.n++ }

// Observed is an observation point: kept for tests under an allow, and what
// it uses stays live with it.
//
//diffkv:allow deadcode -- tests read the fixture's invariant through it
func Observed() int { return observedHelper() }

func observedHelper() int { return 3 }

//diffkv:allow deadcode -- stale: cmd/tool calls AlsoUsed // want "allow directive for deadcode suppresses nothing"
func AlsoUsed() {}
