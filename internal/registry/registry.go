// Package registry is the one name→value registry implementation behind
// the public extension points (serving methods, routing policies,
// preemption-recovery policies). Each instance keeps registration order
// — builtins register at init, third parties after, and derived name
// lists report exactly that order deterministically. Registration
// normally happens in init functions, but lookups run from parallel
// experiment workers, so all access is guarded.
package registry

import (
	"fmt"
	"sync"
)

// Registry maps unique names to values of one extension kind.
type Registry[T any] struct {
	pkg   string // error prefix, e.g. "cluster"
	kind  string // human kind, e.g. "routing policy"
	mu    sync.RWMutex
	order []string
	byNm  map[string]T
}

// New creates a registry whose errors read "<pkg>: ... <kind> ...".
func New[T any](pkg, kind string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, byNm: make(map[string]T)}
}

// Register adds a value under name. Names are case-sensitive, must be
// non-empty and unique. (Nil-ness of the value is the caller's contract
// to check — a typed nil function does not compare equal to nil here.)
func (r *Registry[T]) Register(name string, v T) error {
	if name == "" {
		return fmt.Errorf("%s: %s has empty name", r.pkg, r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byNm[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.pkg, r.kind, name)
	}
	r.byNm[name] = v
	r.order = append(r.order, name)
	return nil
}

// Lookup returns the value registered under name.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v, ok := r.byNm[name]; ok {
		return v, nil
	}
	var zero T
	return zero, fmt.Errorf("%s: unknown %s %q (want one of %v)",
		r.pkg, r.kind, name, r.order)
}

// Names lists registered names in registration order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}
