// Package kvcache implements DiffKV's memory manager — the paper's primary
// systems contribution (§5): unified pages, the circular free page list,
// the bidirectional page table, and parallel KV compaction.
//
// The package has two operating modes. Both run the free ring, the page
// tables and the compaction pipeline over page IDs:
//
//   - materialized: a PagePool backs every ID with a page that carries real
//     quantized payloads; the compression policy and attention kernels run
//     on them (accuracy experiments);
//   - counts-only: a page is only its ID in the ring and in a table, and a
//     head's tokens are two counts; there is no pool. The serving simulator
//     and the Fig. 13 memory-management comparison use this mode to scale
//     to hundreds of requests.
//
// Timing is never measured here: compaction operations return operation
// counts that the gpusim cost model converts to simulated time.
package kvcache

import (
	"fmt"

	"diffkv/internal/quant"
)

// Page is a unified page (paper §5.2): a fixed-size block of device memory
// configured at allocation time to hold tokens at one precision, organized
// into six segments: quantized keys, key quantization metadata, quantized
// values, value metadata, token scores and token positions. Only a
// materialized manager has Page values.
type Page struct {
	Prec quant.Precision
	N    int // tokens stored
	Cap  int // token capacity at the configured precision
	Dim  int

	// payload segments
	keys    []byte    // Cap * Prec.KeyBytes(Dim)
	vals    []byte    // Cap * Prec.ValBytes(Dim)
	keyMeta []float32 // 2 per token: scale, zero
	valMeta []float32 // 2 per token: scale, zero
	scores  []float32 // 1 per token
	pos     []int32   // 1 per token
}

// TokensPerPage returns how many tokens of dimension dim at precision prec
// fit in a page of pageBytes. It panics if not even one fits.
func TokensPerPage(pageBytes, dim int, prec quant.Precision) int {
	tb := prec.TokenBytes(dim)
	n := pageBytes / tb
	if n < 1 {
		panic(fmt.Sprintf("kvcache: page of %dB cannot hold one %s token (needs %dB)",
			pageBytes, prec, tb))
	}
	return n
}

// configure prepares the page for cap tokens at precision prec, resetting
// its contents: its segments are (re)allocated to exact size.
func (p *Page) configure(dim int, prec quant.Precision, cap int) {
	p.Prec = prec
	p.Dim = dim
	p.N = 0
	p.Cap = cap
	p.keys = make([]byte, cap*prec.KeyBytes(dim))
	p.vals = make([]byte, cap*prec.ValBytes(dim))
	p.keyMeta = make([]float32, 2*cap)
	p.valMeta = make([]float32, 2*cap)
	p.scores = make([]float32, cap)
	p.pos = make([]int32, cap)
}

// Full reports whether the page has no free slots.
func (p *Page) Full() bool { return p.N >= p.Cap }

// Append quantizes (key, val) into the next free slot and returns its index.
// Panics if the page is full.
func (p *Page) Append(key, val []float32, score float32, position int32) int {
	if p.Full() {
		panic("kvcache: Append to full page")
	}
	slot := p.N
	kb := p.Prec.KeyBytes(p.Dim)
	vb := p.Prec.ValBytes(p.Dim)
	ks, kz := quant.QuantizeInto(key, p.Prec.KeyBits, p.keys[slot*kb:(slot+1)*kb])
	vs, vz := quant.QuantizeInto(val, p.Prec.ValBits, p.vals[slot*vb:(slot+1)*vb])
	p.keyMeta[2*slot], p.keyMeta[2*slot+1] = ks, kz
	p.valMeta[2*slot], p.valMeta[2*slot+1] = vs, vz
	p.scores[slot] = score
	p.pos[slot] = position
	p.N++
	return slot
}

// KeyData returns the packed key bytes and (scale, zero) of a slot.
func (p *Page) KeyData(slot int) (data []byte, scale, zero float32) {
	kb := p.Prec.KeyBytes(p.Dim)
	return p.keys[slot*kb : (slot+1)*kb], p.keyMeta[2*slot], p.keyMeta[2*slot+1]
}

// ValData returns the packed value bytes and (scale, zero) of a slot.
func (p *Page) ValData(slot int) (data []byte, scale, zero float32) {
	vb := p.Prec.ValBytes(p.Dim)
	return p.vals[slot*vb : (slot+1)*vb], p.valMeta[2*slot], p.valMeta[2*slot+1]
}

// KeySlots returns the packed key codes and (scale, zero) metadata of the
// page's N live slots — the slot-range view the page-granular batched
// kernels (quant.DequantDotSlots) consume.
func (p *Page) KeySlots() (data []byte, meta []float32) {
	kb := p.Prec.KeyBytes(p.Dim)
	return p.keys[:p.N*kb], p.keyMeta[:2*p.N]
}

// ValSlots returns the packed value codes and (scale, zero) metadata of the
// page's N live slots.
func (p *Page) ValSlots() (data []byte, meta []float32) {
	vb := p.Prec.ValBytes(p.Dim)
	return p.vals[:p.N*vb], p.valMeta[:2*p.N]
}

// Positions returns the original token positions of the page's N live slots.
func (p *Page) Positions() []int32 { return p.pos[:p.N] }

// Scores returns the significance scores of the page's N live slots. The
// slice aliases page storage, so writes update the page (the policy's
// running-average refresh uses this to avoid a per-token call).
func (p *Page) Scores() []float32 { return p.scores[:p.N] }

// DequantToken reconstructs the key and value of a slot into the provided
// buffers (each of length Dim).
func (p *Page) DequantToken(slot int, key, val []float32) {
	kd, ks, kz := p.KeyData(slot)
	quant.DequantizeInto(kd, p.Prec.KeyBits, p.Dim, ks, kz, key)
	vd, vs, vz := p.ValData(slot)
	quant.DequantizeInto(vd, p.Prec.ValBits, p.Dim, vs, vz, val)
}

// Score returns the significance score of a slot.
func (p *Page) Score(slot int) float32 { return p.scores[slot] }

// Position returns the original token position of a slot.
func (p *Page) Position(slot int) int32 { return p.pos[slot] }

// RemoveSwap removes a slot by moving the page's last token into it
// (token order within a section is immaterial to attention; positions
// travel with the tokens). Returns the slot that was vacated (the old last
// slot).
func (p *Page) RemoveSwap(slot int) int {
	if slot < 0 || slot >= p.N {
		panic("kvcache: RemoveSwap slot out of range")
	}
	last := p.N - 1
	if slot != last {
		kb := p.Prec.KeyBytes(p.Dim)
		vb := p.Prec.ValBytes(p.Dim)
		copy(p.keys[slot*kb:(slot+1)*kb], p.keys[last*kb:(last+1)*kb])
		copy(p.vals[slot*vb:(slot+1)*vb], p.vals[last*vb:(last+1)*vb])
		p.keyMeta[2*slot], p.keyMeta[2*slot+1] = p.keyMeta[2*last], p.keyMeta[2*last+1]
		p.valMeta[2*slot], p.valMeta[2*slot+1] = p.valMeta[2*last], p.valMeta[2*last+1]
		p.scores[slot] = p.scores[last]
		p.pos[slot] = p.pos[last]
	}
	p.N--
	return last
}

// PagePool owns every page of one materialized memory manager; a
// counts-only manager has none.
type PagePool struct {
	pages []Page
	dim   int
}

// NewPagePool creates n pages of pageBytes each for dimension dim.
func NewPagePool(n, pageBytes, dim int) *PagePool {
	if n <= 0 || pageBytes <= 0 || dim <= 0 {
		panic("kvcache: invalid page pool parameters")
	}
	return &PagePool{pages: make([]Page, n), dim: dim}
}

// Get returns the page with the given ID.
func (pp *PagePool) Get(id int32) *Page {
	return &pp.pages[id]
}

// configure prepares page id for precision prec, whose page capacity the
// caller already knows (the Manager computes its two once), and returns it.
func (pp *PagePool) configure(id int32, prec quant.Precision, cap int) *Page {
	p := &pp.pages[id]
	p.configure(pp.dim, prec, cap)
	return p
}
