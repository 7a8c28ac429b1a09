package quant

// Group-wise quantization: the vector is split into contiguous groups of
// groupSize elements, each quantized with its own scale/zero pair. This is
// the scheme used by the Atom/QServe-style baselines — finer granularity
// contains outlier channels within their group, trading metadata for
// accuracy. DiffKV itself uses per-vector quantization (one scale per key
// or value vector) as described in the paper §2.2.

// GroupedMetaBytes returns the metadata footprint of group-wise quantizing
// n elements: one (scale, zero) float32 pair per group.
func GroupedMetaBytes(n, groupSize int) int {
	if groupSize <= 0 {
		panic("quant: group size must be positive")
	}
	groups := (n + groupSize - 1) / groupSize
	return groups * 8
}

// GroupedTokenBytes returns the per-token page footprint of a token of
// dimension dim stored group-wise at the given precision (payload +
// grouped metadata + score/position bookkeeping).
func GroupedTokenBytes(dim int, p Precision, groupSize int) int {
	return PackedLen(dim, p.KeyBits) + PackedLen(dim, p.ValBits) +
		2*GroupedMetaBytes(dim, groupSize) + AuxBytes
}

// RoundTripGrouped quantizes src group-wise at the given bit width and
// returns the dequantized reconstruction — the exact values an attention
// kernel reading the grouped cache would see.
func RoundTripGrouped(src []float32, bits, groupSize int) []float32 {
	if groupSize <= 0 {
		panic("quant: group size must be positive")
	}
	out := make([]float32, len(src))
	buf := make([]byte, PackedLen(groupSize, bits))
	for lo := 0; lo < len(src); lo += groupSize {
		hi := lo + groupSize
		if hi > len(src) {
			hi = len(src)
		}
		g := src[lo:hi]
		scale, zero := QuantizeInto(g, bits, buf)
		DequantizeInto(buf, bits, len(g), scale, zero, out[lo:hi])
	}
	return out
}

// RoundTrip quantizes src per-vector (one scale/zero for the whole vector)
// and returns the dequantized reconstruction.
func RoundTrip(src []float32, bits int) []float32 {
	buf := make([]byte, PackedLen(len(src), bits))
	scale, zero := QuantizeInto(src, bits, buf)
	out := make([]float32, len(src))
	DequantizeInto(buf, bits, len(src), scale, zero, out)
	return out
}
