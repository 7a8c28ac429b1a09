package quant

import "fmt"

// Precision is a differentiated key/value storage configuration: the number
// of bits used to store each key element and each value element. 16 means
// binary16 (no integer quantization).
type Precision struct {
	KeyBits int
	ValBits int
}

// Named precision configurations from the paper's evaluation (§7.2).
var (
	FP16 = Precision{16, 16} // uncompressed baseline
	K8V8 = Precision{8, 8}   // uniform INT8
	K8V4 = Precision{8, 4}   // DiffKV high-precision tier
	K4V8 = Precision{4, 8}   // mirror of K8V4 (ablation)
	K8V2 = Precision{8, 2}   // skewed variant (ablation)
	K4V2 = Precision{4, 2}   // DiffKV low-precision tier
	K2V4 = Precision{2, 4}   // mirror of K4V2 (ablation)
	K4V1 = Precision{4, 1}   // below the value-bit floor (ablation)
	K4V4 = Precision{4, 4}   // uniform INT4 (Atom-style baseline)
	K2V2 = Precision{2, 2}   // uniform 2-bit (KIVI-style baseline)
)

// String returns the paper's KxVy notation (FP16 for the uncompressed
// configuration).
func (p Precision) String() string {
	if p == FP16 {
		return "FP16"
	}
	return fmt.Sprintf("K%dV%d", p.KeyBits, p.ValBits)
}

// ByName returns the named precision configuration — the inverse of
// String over the configurations above ("FP16", "K8V4", ...).
func ByName(name string) (Precision, error) {
	for _, p := range []Precision{FP16, K8V8, K8V4, K4V8, K8V2, K4V2, K2V4, K4V1, K4V4, K2V2} {
		if p.String() == name {
			return p, nil
		}
	}
	return Precision{}, fmt.Errorf("quant: unknown precision %q (want KxVy notation, e.g. K8V4, or FP16)", name)
}

// Valid reports whether both widths are supported.
func (p Precision) Valid() bool {
	return ValidBits(p.KeyBits) && ValidBits(p.ValBits)
}

// KeyBytes returns the packed key storage for one token of dimension dim.
func (p Precision) KeyBytes(dim int) int { return PackedLen(dim, p.KeyBits) }

// ValBytes returns the packed value storage for one token of dimension dim.
func (p Precision) ValBytes(dim int) int { return PackedLen(dim, p.ValBits) }

// MetaBytes is the per-token quantization metadata: scale+zero for the key
// vector and scale+zero for the value vector, each float32.
const MetaBytes = 4 * 4

// AuxBytes is the per-token bookkeeping carried in unified pages besides
// the quantized payload: the significance score (float32) and the token
// position (int32).
const AuxBytes = 4 + 4

// TokenBytes returns the total unified-page footprint of one token of
// dimension dim at this precision, including quantization metadata, score
// and position (paper §5.2: the six page segments).
func (p Precision) TokenBytes(dim int) int {
	return p.KeyBytes(dim) + p.ValBytes(dim) + MetaBytes + AuxBytes
}
