// Scenario: the composable v2 API end to end. This walkthrough does four
// things a production integration would do:
//
//  1. registers a third-party compression method (RegisterMethod) with a
//     compression hook, so the serving stack runs it with the real page
//     manager without any change to diffkv internals;
//  2. registers a custom routing policy (RegisterRoutingPolicy) that
//     routes by request-ID hash;
//  3. declares the whole setup — model, method, workload, cluster,
//     routing — as one JSON-serializable diffkv.Scenario and Builds it;
//  4. drives the built cluster like an online server through Session
//     handles: token-progress callbacks stream per-request, and one
//     session is cancelled mid-flight (its KV pages and host-tier state
//     are freed immediately, visible in the cluster metrics).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"

	"diffkv"
)

// turboKV is a hypothetical third-party method: DiffKV-style two-tier
// compression with a more aggressive low tier, measured at a smaller
// resident footprint. ServingTraits drives the cost model; the
// CompressionHook tells scenario building to run the real page manager.
type turboKV struct{}

func (turboKV) Name() string { return "TurboKV" }

func (turboKV) ServingTraits(memFrac float64) diffkv.ServingTraits {
	if memFrac <= 0 {
		memFrac = 0.25
	}
	return diffkv.ServingTraits{
		Name: "TurboKV", ResidentMemFrac: memFrac, AttnBytesFrac: memFrac,
		FrameworkOverhead: 1,
	}
}

func (turboKV) Compression() diffkv.CompressionSetup {
	return diffkv.CompressionSetup{UseManager: true, HiFrac: 0.15, LoFrac: 0.3}
}

// idHash is a custom routing policy: deterministic request-ID hashing
// over whatever instances admission control left routable.
type idHash struct{}

func (idHash) Name() string { return "id-hash" }

func (idHash) Pick(req diffkv.Request, snaps []diffkv.RoutingSnapshot) int {
	return snaps[req.ID%len(snaps)].ID
}

func main() {
	// 1+2: runtime registrations — both names become first-class
	// everywhere a method / routing policy is named
	if err := diffkv.RegisterMethod(turboKV{}); err != nil {
		log.Fatal(err)
	}
	if err := diffkv.RegisterRoutingPolicy("id-hash",
		func(diffkv.ClusterServerConfig) (diffkv.RoutingPolicy, error) {
			return idHash{}, nil
		}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("methods:  %v\nrouting:  %v\n\n", diffkv.Methods(), diffkv.RoutingPolicies())

	// 3: one declarative spec for the whole stack. This struct is what
	// `diffkv-serve -scenario file.json` loads; print it to see the wire
	// format.
	sc := diffkv.Scenario{
		Name:      "turbokv-idhash-cluster",
		Model:     "Llama3-8B",
		Method:    "TurboKV",
		MemFrac:   0.3,
		MaxGenLen: 128,
		Workload:  diffkv.WorkloadSpec{Bench: "GSM8K", Requests: 10},
		Cluster:   &diffkv.ClusterSpec{Instances: 2, Routing: "id-hash"},
		Seed:      7,
	}
	spec, _ := json.MarshalIndent(&sc, "", "  ")
	fmt.Printf("scenario spec:\n%s\n\n", spec)

	st, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 4: drive the cluster online through sessions
	ctx := context.Background()
	var sessions []*diffkv.Session
	var victim *diffkv.Session
	for i, r := range st.Requests() {
		s, err := st.Cluster.Open(ctx, r)
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, s)
		if i == 2 {
			victim = s
			s.OnToken(func(u diffkv.TokenUpdate) {
				if u.Generated == 8 {
					fmt.Printf("  request %d: cancelling after %d tokens (user hung up)\n",
						u.Seq, u.Generated)
					s.Cancel()
				}
			})
		}
	}
	if err := st.Cluster.DrainContext(ctx); err != nil {
		log.Fatal(err)
	}

	for _, s := range sessions {
		cp, err := s.Completion()
		switch {
		case errors.Is(err, diffkv.ErrSessionCancelled):
			fmt.Printf("  request %d: cancelled at %d tokens, KV freed\n", s.ID(), s.Generated())
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Printf("  request %d: %d tokens, TTFT %.0f ms\n",
				s.ID(), cp.Req.GenLen, cp.TTFTUs()/1e3)
		}
	}

	m := st.Cluster.Metrics()
	fmt.Printf("\ncluster (%s routing): %d completed, %d cancelled, %d stuck\n",
		m.Policy, m.Completed, m.Cancelled, m.Stuck())
	for i, is := range m.PerInstance {
		fmt.Printf("  instance %d: %d requests, %.0f%% utilized\n",
			i+1, is.Dispatched, 100*is.Utilization)
	}
	if victim != nil {
		if _, err := victim.Completion(); errors.Is(err, diffkv.ErrSessionCancelled) {
			fmt.Println("\ncancellation freed the victim's pages mid-run — no restart, no leak;")
			fmt.Println("the same spec, serialized, reproduces this run via -scenario.")
		}
	}
}
