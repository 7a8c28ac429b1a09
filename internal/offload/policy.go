package offload

import "fmt"

// Recovery is the action the serving engine applies to a preemption
// victim. Every policy picks the same victim (the youngest running
// sequence); they differ only in how it comes back.
type Recovery int

const (
	// RecoverRecompute discards the victim's KV and restarts it from
	// scratch later (vLLM-style recompute preemption).
	RecoverRecompute Recovery = iota
	// RecoverSwap moves the victim's pages to the host tier over PCIe and
	// resumes it from where it stopped.
	RecoverSwap
	// RecoverCompressSwap re-quantizes the victim entirely into the
	// low-precision tier first, then swaps the smaller payload.
	RecoverCompressSwap
)

// Preemption policy names accepted by RecoveryFor.
const (
	PolicyRecompute    = "recompute"
	PolicySwap         = "swap"
	PolicyCompressSwap = "compress-swap"
)

// policies names each Recovery at its own index.
var policies = [...]string{PolicyRecompute, PolicySwap, PolicyCompressSwap}

// Policies lists the preemption policy names in Recovery order. The
// caller owns the returned slice.
func Policies() []string { return append([]string(nil), policies[:]...) }

// RecoveryFor maps a preemption policy name to its recovery action (""
// selects recompute).
func RecoveryFor(name string) (Recovery, error) {
	if name == "" {
		return RecoverRecompute, nil
	}
	for i, n := range policies {
		if n == name {
			return Recovery(i), nil
		}
	}
	return 0, fmt.Errorf("offload: unknown preemption policy %q (want one of %v)", name, policies)
}
