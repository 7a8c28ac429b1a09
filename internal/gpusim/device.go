// Package gpusim models the GPU on which DiffKV runs. It is an analytic
// cost model, not an instruction simulator: every quantity the paper's
// performance evaluation depends on (HBM bandwidth, tensor-core throughput,
// kernel-launch overhead, host-device synchronization, parallel prefix-sum
// depth) is represented by a first-order term, calibrated against the
// NVIDIA L40 numbers reported in the paper (§7.1, §7.3).
//
// The package deliberately separates *what work happens* (computed by the
// real data structures in kvcache/attention) from *how long it takes*
// (computed here), so correctness is executed and time is modeled.
package gpusim

// Micros is simulated wall-clock time in microseconds.
type Micros float64

// Millis converts to milliseconds for reporting.
func (m Micros) Millis() float64 { return float64(m) / 1e3 }

// Seconds converts to seconds for reporting.
func (m Micros) Seconds() float64 { return float64(m) / 1e6 }

// Device is the hardware model.
type Device struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// LanesPerSM is the number of concurrently executing lanes per SM used
	// for the parallel-work term of on-GPU kernels.
	LanesPerSM int
	// HBMBandwidth is the attainable memory bandwidth in bytes/µs
	// (i.e. GB/s ≈ 1e3 bytes/µs).
	HBMBandwidth float64
	// TensorTFLOPs is the effective FP16 tensor throughput in FLOPs/µs.
	TensorTFLOPs float64
	// KernelLaunch is the fixed overhead of launching one kernel, µs.
	KernelLaunch Micros
	// HostSync is the cost of one host-device synchronization, µs.
	HostSync Micros
	// PCIe is the host-device link. Bandwidth is in bytes/µs, Latency the
	// fixed per-transfer cost, and OverlapFrac the fraction of a transfer
	// that hides behind concurrent kernel execution (copy engines run
	// asynchronously; the remainder stalls the stream on synchronization
	// and page-table updates). OverlapFrac is calibrated, not datasheet:
	// transfers overlap well until they contend with the attention
	// kernels for HBM.
	PCIe Link
	// NIC is the cross-instance network link that disaggregated serving
	// ships prefill KV over. Bandwidth is the per-GPU share of the node's
	// RDMA-capable fabric, Latency the fixed per-message cost (link +
	// switch traversal + registration), and OverlapFrac the fraction of
	// an incoming transfer's DMA that hides behind concurrent kernel
	// execution on the receiving device — the NIC writes GPU memory
	// through the same copy engines as PCIe, so ingest contends with
	// attention for HBM just like swap-in does.
	NIC Link
	// MemoryBytes is total device memory.
	MemoryBytes int64
	// CPUTokenOpMicros is the per-token bookkeeping cost of the on-CPU
	// memory-management comparator (managed-runtime list manipulation),
	// and CPUThreadsMax bounds its thread pool. Calibrated to Fig. 13.
	CPUTokenOpMicros float64
	CPUThreadsMax    int
}

// L40 returns the evaluation GPU of the paper: NVIDIA L40, 48 GB.
//
// Bandwidth/throughput are the public datasheet numbers derated to
// attainable levels; KernelLaunch/HostSync are typical CUDA figures; the
// CPU comparator constants are calibrated so the Fig. 13 comparison
// reproduces the paper's orders of magnitude.
func L40() *Device {
	return &Device{
		Name:         "NVIDIA-L40",
		SMs:          142,
		LanesPerSM:   128,
		HBMBandwidth: 864e3, // 864 GB/s
		TensorTFLOPs: 165e6, // ~165 TFLOPs effective FP16
		KernelLaunch: 8,
		HostSync:     18,
		PCIe:         Link{Latency: 10, Bandwidth: 16e3, OverlapFrac: 0.6},   // 16 GB/s effective PCIe 4.0 x16
		NIC:          Link{Latency: 25, Bandwidth: 12.5e3, OverlapFrac: 0.7}, // 100 GbE RoCE, ~12.5 GB/s effective
		MemoryBytes:  48 << 30,
		// ~4.4 µs per token-region op on the CPU path, thread pool grows
		// with batch up to 96 threads (matches the sublinear batch scaling
		// in Fig. 13).
		CPUTokenOpMicros: 4.4,
		CPUThreadsMax:    96,
	}
}

// Cluster is a group of identical devices executing a tensor-parallel
// partition of the model (one worker per GPU, paper §6.1).
type Cluster struct {
	Device *Device
	GPUs   int
}

// NewCluster builds a cluster of n devices.
func NewCluster(d *Device, n int) *Cluster {
	if n < 1 {
		n = 1
	}
	return &Cluster{Device: d, GPUs: n}
}

// TotalMemory returns aggregate device memory.
func (c *Cluster) TotalMemory() int64 {
	return c.Device.MemoryBytes * int64(c.GPUs)
}

// A100 returns an NVIDIA A100-80GB model (SXM): the previous-generation
// datacenter GPU, with ~2.4x the L40's memory bandwidth. Useful for
// sensitivity analysis: DiffKV's attention speedup tracks bytes moved, so
// its relative gains are bandwidth-invariant while absolute latencies
// shift.
func A100() *Device {
	return &Device{
		Name:             "NVIDIA-A100-80G",
		SMs:              108,
		LanesPerSM:       128,
		HBMBandwidth:     2039e3,
		TensorTFLOPs:     280e6,
		KernelLaunch:     8,
		HostSync:         18,
		PCIe:             Link{Latency: 10, Bandwidth: 25e3, OverlapFrac: 0.6},
		NIC:              Link{Latency: 15, Bandwidth: 25e3, OverlapFrac: 0.75}, // 200 Gb/s HDR InfiniBand
		MemoryBytes:      80 << 30,
		CPUTokenOpMicros: 4.4,
		CPUThreadsMax:    96,
	}
}

// H100 returns an NVIDIA H100-80GB model (SXM).
func H100() *Device {
	return &Device{
		Name:             "NVIDIA-H100-80G",
		SMs:              132,
		LanesPerSM:       128,
		HBMBandwidth:     3350e3,
		TensorTFLOPs:     850e6,
		KernelLaunch:     8,
		HostSync:         18,
		PCIe:             Link{Latency: 8, Bandwidth: 50e3, OverlapFrac: 0.7},
		NIC:              Link{Latency: 12, Bandwidth: 50e3, OverlapFrac: 0.8}, // 400 Gb/s NDR InfiniBand
		MemoryBytes:      80 << 30,
		CPUTokenOpMicros: 4.4,
		CPUThreadsMax:    96,
	}
}

// Devices lists the configured hardware models.
func Devices() []*Device {
	return []*Device{L40(), A100(), H100()}
}
