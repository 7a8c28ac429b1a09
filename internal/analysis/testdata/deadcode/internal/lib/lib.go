// Package lib is a diffkv-vet fixture: the deadcode check over a typed
// mini-module whose only non-test root is cmd/tool.
package lib

import (
	"fmt"
	"sort"
)

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
	sort.Sort(&byCount{xs: xs})
	sort.Sort(byLenDesc{swapper(xs)})
	return xs
}

// byCount satisfies sort.Interface through its pointer receivers.
type byCount struct{ xs []string }

func (b *byCount) Len() int           { return len(b.xs) }
func (b *byCount) Less(i, j int) bool { return b.xs[i] < b.xs[j] }
func (b *byCount) Swap(i, j int)      { b.xs[i], b.xs[j] = b.xs[j], b.xs[i] }

// byLenDesc satisfies sort.Interface only with the Swap it promotes from
// swapper, which satisfies nothing alone.
type swapper []string

func (s swapper) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

type byLenDesc struct{ swapper }

func (b byLenDesc) Len() int           { return len(b.swapper) }
func (b byLenDesc) Less(i, j int) bool { return len(b.swapper[i]) > len(b.swapper[j]) }

// Stack is live, and its Len shares a name with sort.Interface's but
// satisfies no interface, and no non-test code calls it.
type Stack struct{ xs []int }

func (s *Stack) Push(x int) { s.xs = append(s.xs, x) }

func (s *Stack) Len() int { return len(s.xs) } // want "method Len is reachable only from tests"

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

// Box is generic: cmd/tool reaches Stash and Unstash through Box[string],
// and sets Label through it too, which sets the origin's field.
type Box[T any] struct {
	v     T
	Label string
}

func (b *Box[T]) Labelled() string { return b.Label }

func (b *Box[T]) Stash(v T) { b.v = v }

func (b *Box[T]) Unstash() T { return b.v }

func (b *Box[T]) Glance() T { return b.v } // want "method Glance is reachable only from tests"

// Counter.Bump is only ever taken as a method value.
type Counter struct{ n int }

func (c *Counter) Bump() { c.n++ }

func (c Counter) Count() int { return c.n }

// Observed is an observation point: kept for tests under an allow, and what
// it uses stays live with it.
//
//diffkv:allow deadcode -- tests read the fixture's invariant through it
func Observed() int { return observedHelper() }

func observedHelper() int { return 3 }

//diffkv:allow deadcode -- stale: cmd/tool calls AlsoUsed // want "allow directive for deadcode suppresses nothing"
func AlsoUsed() {}

// Fields: every field of a reached declaration here must be read and set
// by non-test code.
type Fields struct {
	written  int // want "field written of Fields is never read outside tests"
	testRead int // want "field testRead of Fields is never read outside tests"
	testSet  int // want "field testSet of Fields is never set outside tests, so it always holds its zero value"
	Tagged   int `json:"tagged"`
	tally    Counter
	level    int
	pairs    []pair
	//diffkv:allow deadcode -- tests read the fixture's invariant through it
	observed int
	//diffkv:allow deadcode -- stale: Use reads and sets it // want "allow directive for deadcode suppresses nothing"
	plain int
}

// pair is only built positionally, in a literal whose element type is elided.
type pair struct{ k, v int }

// printed reaches fmt, which reads (and could set) every field by reflection.
type printed struct{ a, b int }

// compared is compared whole, which reads every field.
type compared struct{ x, y int }

// Use is called from cmd/tool.
func Use(f *Fields) string {
	f.written = 1
	f.testRead = 2
	f.observed = 3
	f.plain = f.plain + 1
	f.tally.Bump() // a pointer method sets the value field tally
	fmt.Sscan("4", &f.level)
	f.pairs = []pair{{1, 2}}
	same := compared{} == compared{}
	return fmt.Sprintf("%v %d %d %d %d %v", printed{}, f.testSet, f.tally.Count(), f.level, f.pairs[0].k+f.pairs[0].v, same)
}
