package gpusim

import "math"

// MemBoundKernel returns the duration of a memory-bandwidth-bound kernel
// that moves `bytes` through HBM at the given utilization (0 < util <= 1),
// plus one launch overhead.
func (d *Device) MemBoundKernel(bytes float64, util float64) Micros {
	if util <= 0 || util > 1 {
		panic("gpusim: utilization out of (0,1]")
	}
	return d.KernelLaunch + Micros(bytes/(d.HBMBandwidth*util))
}

// AttentionBandwidthUtil is the fraction of peak bandwidth the attention
// kernel attains. The paper's custom layouts coalesce accesses; quantized
// pages pay a small extra cost for metadata access and in-register
// dequantization (§7.3: K8V8 achieves 1.7x of the theoretical 2.0x).
const (
	attnUtilFP16  = 0.90
	attnUtilQuant = 0.82
)

// AttentionKernel returns the time of one paged-attention kernel over a
// compressed KV cache.
//
//	bytesHBM   – total KV bytes touched (payload + metadata + table)
//	quantized  – whether on-the-fly dequantization runs
//	seqSplits  – sequence-dimension parallel segments (≥1); splitting adds a
//	             small merge cost but increases SM occupancy on long
//	             sequences.
func (d *Device) AttentionKernel(bytesHBM float64, quantized bool, seqSplits int) Micros {
	util := attnUtilFP16
	if quantized {
		util = attnUtilQuant
	}
	if seqSplits < 1 {
		seqSplits = 1
	}
	t := d.MemBoundKernel(bytesHBM, util)
	if seqSplits > 1 {
		// merge kernel: one small reduction per split
		t += d.KernelLaunch + Micros(float64(seqSplits)*0.5)
	}
	return t
}

// LinearLayers returns the time of the non-attention portion of one model
// step (QKV/output projections + MLP): memory-bound on weight reads for
// small batches, compute-bound for large token counts.
//
//	weightBytes – total parameter bytes resident on this GPU
//	tokens      – tokens processed this step across the batch (batch size
//	              during generation; sum of prompt lengths during prompt)
func (d *Device) LinearLayers(weightBytes float64, tokens int) Micros {
	// 2 FLOPs per parameter per token
	flops := 2 * (weightBytes / 2) * float64(tokens)
	computeT := flops / d.TensorTFLOPs
	memT := weightBytes / d.HBMBandwidth
	t := math.Max(computeT, memT)
	return Micros(t) + d.KernelLaunch
}

// GPUCompaction returns the time of one on-GPU parallel KV compaction pass
// (paper §5.2): a fully parallel planning phase over every
// (request, head) region, a prefix-sum coordination phase, and a handful of
// fixed kernel launches.
//
//	tokenOps – total per-token planning operations this step (≈ tokens
//	           scanned across all heads and requests)
//	regions  – number of (request × head) regions coordinated
func (d *Device) GPUCompaction(tokenOps, regions int) Micros {
	lanes := float64(d.SMs * d.LanesPerSM)
	// planning: embarrassingly parallel, ~4 cycles/op at ~1.5 GHz
	planning := Micros(float64(tokenOps) / lanes * 0.0027)
	// coordination: work-efficient scan, log2(regions) dependent steps
	steps := 1.0
	if regions > 1 {
		steps = math.Ceil(math.Log2(float64(regions)))
	}
	coordination := Micros(steps * 2.2)
	// fixed pipeline: plan, scan, gather, scatter kernels
	launches := 4 * d.KernelLaunch
	return launches + planning + coordination
}

// CPUMemoryManagement returns the time of the on-CPU multi-threaded
// comparator (Fig. 13): every (request, head) region is scanned on the host
// (managed-runtime list ops per token), the thread pool grows with batch
// size, and the resulting page tables cross PCIe with a host sync.
func (d *Device) CPUMemoryManagement(tokenOps, regions, batch int) Micros {
	threads := 4 * batch
	if threads > d.CPUThreadsMax {
		threads = d.CPUThreadsMax
	}
	if threads < 1 {
		threads = 1
	}
	scan := Micros(float64(tokenOps) * d.CPUTokenOpMicros / float64(threads))
	// page-table transfer: 8 bytes per region entry, one round trip
	xfer := d.PCIe.Latency*2 + Micros(float64(regions)*8/d.PCIe.Bandwidth)
	return scan + xfer + d.HostSync
}

// Link is one data path's transfer model: a fixed per-transfer latency,
// a bandwidth in bytes/µs, and the fraction of a transfer that can hide
// behind concurrent kernel execution. A Device has two: PCIe between
// host and device, NIC between serving instances.
type Link struct {
	Latency                Micros
	Bandwidth, OverlapFrac float64
}

// Transfer returns the duration of one transfer moving `bytes` over the
// link: the fixed per-transfer latency (doorbell and descriptor fetch on
// PCIe; link, switch traversal and memory registration on the NIC) plus
// the bandwidth term. The offload tier prices KV swap traffic over PCIe
// (D2H on swap-out, H2D on swap-in/prefetch); disaggregated serving
// prices shipping a finished prefill's KV pages to its decode instance
// over the NIC — compressed pages cross the wire at their packed size,
// so a K4V2 sequence ships several times cheaper than FP16.
func (l Link) Transfer(bytes float64) Micros {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + Micros(bytes/l.Bandwidth)
}

// Stall returns the portion of a transfer that cannot be hidden behind
// concurrent kernel execution of `compute` duration: the copy engines
// overlap up to OverlapFrac of the compute window, and whatever exceeds
// it stalls the stream. This is the transfer time a serving step
// actually pays — for swap traffic, and for the ingest of a shipped
// sequence a decode instance adopts mid-batch.
func (l Link) Stall(xfer, compute Micros) Micros {
	if xfer <= 0 {
		return 0
	}
	overlap := l.OverlapFrac
	if overlap < 0 {
		overlap = 0
	} else if overlap > 1 {
		overlap = 1
	}
	hidden := Micros(overlap * float64(compute))
	if hidden >= xfer {
		return 0
	}
	return xfer - hidden
}

// SchedulerOverhead is the per-step host-side scheduling cost for a batch.
func (d *Device) SchedulerOverhead(batch int) Micros {
	return Micros(40 + 2*float64(batch))
}

// CompressorKernel returns the time of the KV-compressor kernel that
// quantizes this step's new keys/values and updates significance scores
// (paper §6.1). It is bandwidth-bound on the tensors it reads and writes.
func (d *Device) CompressorKernel(bytesTouched float64) Micros {
	return d.MemBoundKernel(bytesTouched, 0.75)
}
