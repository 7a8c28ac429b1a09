package main

// Example runs the walkthrough under go test, so the registrations, the
// spec's wire format and the cancelled session's outcome are pinned.
func Example() {
	main()
	// Output:
	// methods:  [vLLM Quest SnapKV Atom KIVI DiffKV TurboKV]
	// routing:  [round-robin least-loaded prefix-affinity disagg-aware id-hash]
	//
	// scenario spec:
	// {
	//   "name": "turbokv-idhash-cluster",
	//   "model": "Llama3-8B",
	//   "method": "TurboKV",
	//   "mem_frac": 0.3,
	//   "max_gen_len": 128,
	//   "workload": {
	//     "bench": "GSM8K",
	//     "requests": 10
	//   },
	//   "cluster": {
	//     "instances": 2,
	//     "routing": "id-hash"
	//   },
	//   "seed": 7
	// }
	//
	//   request 3: cancelling after 8 tokens (user hung up)
	//   request 1: 128 tokens, TTFT 203 ms
	//   request 2: 128 tokens, TTFT 246 ms
	//   request 3: cancelled at 8 tokens, KV freed
	//   request 4: 128 tokens, TTFT 246 ms
	//   request 5: 128 tokens, TTFT 203 ms
	//   request 6: 128 tokens, TTFT 246 ms
	//   request 7: 128 tokens, TTFT 203 ms
	//   request 8: 128 tokens, TTFT 246 ms
	//   request 9: 128 tokens, TTFT 203 ms
	//   request 10: 128 tokens, TTFT 246 ms
	//
	// cluster (id-hash routing): 9 completed, 1 cancelled, 0 stuck
	//   instance 1: 5 requests, 100% utilized
	//   instance 2: 5 requests, 98% utilized
	//
	// cancellation freed the victim's pages mid-run — no restart, no leak;
	// the same spec, serialized, reproduces this run via -scenario.
}
