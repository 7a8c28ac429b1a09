package telemetry

// Series is a fixed-capacity ring of (time, value) samples — one metric's
// recent history at the sampling cadence. Once full, the oldest sample is
// overwritten; memory and per-sample cost are O(1), which is what lets an
// always-on server keep dozens of these without unbounded growth. Series
// is not goroutine-safe: the Center serializes access behind its lock.
type Series struct {
	t, v []float64
	next int
	n    int
}

// NewSeries creates a series retaining at most capacity samples
// (default 512 when capacity <= 0).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 512
	}
	return &Series{t: make([]float64, capacity), v: make([]float64, capacity)}
}

// Add appends a sample, evicting the oldest when full.
func (s *Series) Add(timeUs, value float64) {
	s.t[s.next] = timeUs
	s.v[s.next] = value
	s.next = (s.next + 1) % len(s.t)
	if s.n < len(s.t) {
		s.n++
	}
}

// Len returns how many samples are retained.
func (s *Series) Len() int { return s.n }

// At returns the i-th retained sample, oldest first (0 <= i < Len).
func (s *Series) At(i int) (timeUs, value float64) {
	idx := (s.next - s.n + i + len(s.t)) % len(s.t)
	return s.t[idx], s.v[idx]
}

// Values copies the retained values oldest-first (sparkline feed).
func (s *Series) Values() []float64 {
	out := make([]float64, s.n)
	for i := range out {
		_, out[i] = s.At(i)
	}
	return out
}

// Tail copies the most recent k values oldest-first (all when k >= Len).
func (s *Series) Tail(k int) []float64 {
	if k >= s.n {
		return s.Values()
	}
	out := make([]float64, k)
	for i := range out {
		_, out[i] = s.At(s.n - k + i)
	}
	return out
}

// Slope returns the least-squares trend of the retained samples in value
// units per second (time is stored in microseconds), over at most the
// last window samples (all when window <= 0). It returns 0 with fewer
// than two samples or a degenerate time axis.
func (s *Series) Slope(window int) float64 {
	n := s.n
	if window > 0 && window < n {
		n = window
	}
	if n < 2 {
		return 0
	}
	first := s.n - n
	// shift times to the window start for numerical stability
	t0, _ := s.At(first)
	var sumT, sumV, sumTT, sumTV float64
	for i := 0; i < n; i++ {
		t, v := s.At(first + i)
		ts := (t - t0) / 1e6
		sumT += ts
		sumV += v
		sumTT += ts * ts
		sumTV += ts * v
	}
	den := float64(n)*sumTT - sumT*sumT
	if den == 0 {
		return 0
	}
	return (float64(n)*sumTV - sumT*sumV) / den
}
