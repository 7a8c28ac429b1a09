package registry

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegisterRejectsEmptyAndDuplicateNames(t *testing.T) {
	r := New[int]("pkg", "widget")
	if err := r.Register("", 1); err == nil || err.Error() != "pkg: widget has empty name" {
		t.Fatalf("empty name: err = %v", err)
	}
	if err := r.Register("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", 2); err == nil || err.Error() != `pkg: widget "a" already registered` {
		t.Fatalf("duplicate: err = %v", err)
	}
	// the rejected duplicate neither replaced the value nor grew the list
	if v, err := r.Lookup("a"); err != nil || v != 1 {
		t.Fatalf("Lookup(a) = %v, %v; want 1", v, err)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Names = %v", got)
	}
	// names are case-sensitive
	if err := r.Register("A", 3); err != nil {
		t.Fatalf("case-distinct name rejected: %v", err)
	}
}

func TestNamesKeepRegistrationOrder(t *testing.T) {
	r := New[string]("pkg", "widget")
	if got := r.Names(); len(got) != 0 {
		t.Fatalf("empty registry Names = %v", got)
	}
	want := []string{"zeta", "alpha", "mid"}
	for _, n := range want {
		if err := r.Register(n, strings.ToUpper(n)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want registration order %v", got, want)
	}
	// the returned slice is a copy: callers cannot reorder the registry
	got[0] = "clobbered"
	if again := r.Names(); !reflect.DeepEqual(again, want) {
		t.Fatalf("Names aliased internal state: %v", again)
	}
}

func TestLookupMissNamesRegistryAndKnownEntries(t *testing.T) {
	r := New[int]("cluster", "routing policy")
	for i, n := range []string{"round-robin", "least-loaded"} {
		if err := r.Register(n, i+1); err != nil {
			t.Fatal(err)
		}
	}
	v, err := r.Lookup("nope")
	if err == nil || v != 0 {
		t.Fatalf("Lookup miss = %v, %v; want zero value and an error", v, err)
	}
	want := `cluster: unknown routing policy "nope" (want one of [round-robin least-loaded])`
	if err.Error() != want {
		t.Fatalf("miss message = %q, want %q", err, want)
	}
}
