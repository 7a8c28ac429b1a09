package telemetry

import (
	"math"
	"testing"
)

// TestSeriesWraparound pins the ring contract: once full, the oldest
// sample is evicted and At/Values/Tail stay oldest-first across the
// wrap point.
func TestSeriesWraparound(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 10; i++ {
		s.Add(float64(i)*1e6, float64(i*i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// retained samples are 6..9, oldest first
	for i := 0; i < 4; i++ {
		want := float64(6 + i)
		tm, v := s.At(i)
		if tm != want*1e6 || v != want*want {
			t.Fatalf("At(%d) = (%g, %g), want (%g, %g)", i, tm, v, want*1e6, want*want)
		}
	}
	vals := s.Values()
	if len(vals) != 4 || vals[0] != 36 || vals[3] != 81 {
		t.Fatalf("Values = %v", vals)
	}
	tail := s.Tail(2)
	if len(tail) != 2 || tail[0] != 64 || tail[1] != 81 {
		t.Fatalf("Tail(2) = %v", tail)
	}
	if got := s.Tail(100); len(got) != 4 {
		t.Fatalf("Tail(100) len = %d, want 4", len(got))
	}
}

// TestSeriesSlope: a perfectly linear signal recovers its rate in
// value-per-second units, a flat one reports 0, and the window bound
// restricts the fit to the most recent samples.
func TestSeriesSlope(t *testing.T) {
	s := NewSeries(64)
	for i := 0; i < 20; i++ {
		s.Add(float64(i)*1e6, 3*float64(i)) // 3 units per second
	}
	if got := s.Slope(0); math.Abs(got-3) > 1e-9 {
		t.Fatalf("Slope = %g, want 3", got)
	}

	flat := NewSeries(64)
	for i := 0; i < 20; i++ {
		flat.Add(float64(i)*1e6, 7)
	}
	if got := flat.Slope(0); got != 0 {
		t.Fatalf("flat Slope = %g, want 0", got)
	}

	// kinked signal: flat for 10 samples, then slope 5; a window covering
	// only the recent leg must see 5, the full fit must not
	kink := NewSeries(64)
	for i := 0; i < 10; i++ {
		kink.Add(float64(i)*1e6, 0)
	}
	for i := 10; i < 20; i++ {
		kink.Add(float64(i)*1e6, 5*float64(i-10))
	}
	if got := kink.Slope(10); math.Abs(got-5) > 1e-9 {
		t.Fatalf("windowed Slope = %g, want 5", got)
	}
	if got := kink.Slope(0); math.Abs(got-5) < 1e-9 {
		t.Fatalf("full-history Slope = %g, should differ from windowed 5", got)
	}

	short := NewSeries(8)
	short.Add(0, 1)
	if got := short.Slope(0); got != 0 {
		t.Fatalf("single-sample Slope = %g, want 0", got)
	}
}

// TestSeriesSlopeAfterWrap: the fit must use the retained window, not
// stale pre-wrap values.
func TestSeriesSlopeAfterWrap(t *testing.T) {
	s := NewSeries(8)
	for i := 0; i < 100; i++ {
		s.Add(float64(i)*1e6, -2*float64(i))
	}
	if got := s.Slope(0); math.Abs(got-(-2)) > 1e-9 {
		t.Fatalf("Slope after wrap = %g, want -2", got)
	}
}
