package offload

import (
	"reflect"
	"testing"
)

// TestRecoveryFor pins the preemption-name contract: "" and each policy
// name map to their recovery, and an unknown name is refused with the
// list of valid ones.
func TestRecoveryFor(t *testing.T) {
	for name, want := range map[string]Recovery{
		"":                 RecoverRecompute,
		PolicyRecompute:    RecoverRecompute,
		PolicySwap:         RecoverSwap,
		PolicyCompressSwap: RecoverCompressSwap,
	} {
		got, err := RecoveryFor(name)
		if err != nil || got != want {
			t.Errorf("RecoveryFor(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := RecoveryFor("NoSuch")
	const want = `offload: unknown preemption policy "NoSuch" (want one of [recompute swap compress-swap])`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown policy error = %v, want %q", err, want)
	}
}

// TestPolicies pins the name list and that callers own the slice.
func TestPolicies(t *testing.T) {
	want := []string{"recompute", "swap", "compress-swap"}
	got := Policies()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	got[0] = "mutated"
	if again := Policies(); !reflect.DeepEqual(again, want) {
		t.Fatalf("mutating the result changed the next call: %v", again)
	}
}
