package gpusim

import "testing"

// TestNICTransferZeroBytes pins the fast path: a zero- or negative-byte
// transfer costs nothing — no per-message latency is charged for
// sequences with no KV to ship (e.g. a fully cached prefill).
func TestNICTransferZeroBytes(t *testing.T) {
	for _, d := range Devices() {
		if got := d.NIC.Transfer(0); got != 0 {
			t.Fatalf("%s: NIC.Transfer(0) = %v, want 0", d.Name, got)
		}
		if got := d.NIC.Transfer(-1); got != 0 {
			t.Fatalf("%s: NIC.Transfer(-1) = %v, want 0", d.Name, got)
		}
	}
}

// TestNICTransferMonotonic pins strict monotonicity in bytes: more KV on
// the wire always costs more, and every positive transfer pays at least
// the fixed per-message latency.
func TestNICTransferMonotonic(t *testing.T) {
	for _, d := range Devices() {
		if d.NIC.Bandwidth <= 0 || d.NIC.Latency <= 0 {
			t.Fatalf("%s: NIC model not calibrated (bw=%v lat=%v)",
				d.Name, d.NIC.Bandwidth, d.NIC.Latency)
		}
		prev := Micros(0)
		for _, bytes := range []float64{1, 4 << 10, 1 << 20, 64 << 20, 1 << 30} {
			got := d.NIC.Transfer(bytes)
			if got <= prev {
				t.Fatalf("%s: NIC.Transfer(%g) = %v, not above %v", d.Name, bytes, got, prev)
			}
			if got < d.NIC.Latency {
				t.Fatalf("%s: NIC.Transfer(%g) = %v below fixed latency %v",
					d.Name, bytes, got, d.NIC.Latency)
			}
			prev = got
		}
	}
}

// TestNICTransferCalibration sanity-checks the bandwidth term against the
// configured link rate: a large transfer's duration must converge to
// bytes/NIC.Bandwidth within the fixed latency.
func TestNICTransferCalibration(t *testing.T) {
	for _, d := range Devices() {
		bytes := float64(1 << 30)
		want := Micros(bytes / d.NIC.Bandwidth)
		got := d.NIC.Transfer(bytes)
		if got < want || got > want+d.NIC.Latency {
			t.Fatalf("%s: NIC.Transfer(1GiB) = %v, want [%v, %v]",
				d.Name, got, want, want+d.NIC.Latency)
		}
	}
}

// TestNICStall pins the overlap model: zero transfers stall nothing, a
// transfer fully covered by overlapping compute stalls nothing, and a
// transfer with no compute to hide behind stalls in full.
func TestNICStall(t *testing.T) {
	d := L40()
	if got := d.NIC.Stall(0, 1000); got != 0 {
		t.Fatalf("NIC.Stall(0, 1000) = %v, want 0", got)
	}
	if got := d.NIC.Stall(100, 0); got != 100 {
		t.Fatalf("NIC.Stall(100, 0) = %v, want 100 (nothing to hide behind)", got)
	}
	// xfer far smaller than overlap * compute: fully hidden
	if got := d.NIC.Stall(10, 1e6); got != 0 {
		t.Fatalf("NIC.Stall(10, 1e6) = %v, want 0 (fully hidden)", got)
	}
	// partial: xfer 1000, compute 1000, overlap 0.7 -> 300 exposed
	if got := d.NIC.Stall(1000, 1000); got != Micros(1000-0.7*1000) {
		t.Fatalf("NIC.Stall(1000, 1000) = %v, want 300", got)
	}
	// monotone in xfer for fixed compute
	if d.NIC.Stall(2000, 1000) <= d.NIC.Stall(1000, 1000) {
		t.Fatal("NIC.Stall not monotone in transfer size")
	}
}
