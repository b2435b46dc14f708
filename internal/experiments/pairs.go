package experiments

import (
	"math/rand/v2"
	"sync"

	"pingmesh/internal/analysis"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// probeRelationPairs simulates the Pingmesh probing relation — the
// intra-pod complete graph plus the intra-DC rank pairing — among the
// servers passing participates (as sources and destinations), with k probes
// per directed pair, and aggregates per-pair stats keyed like the DSA's
// server-pair job: the feed of black-hole detection under the
// sampled-participation ablation of §6.1. Each source draws from its own
// rng, seeded by its server ID, so the stats do not depend on workers.
func probeRelationPairs(net *netsim.Network, k int, seed uint64, workers int, participates func(topology.ServerID) bool) map[string]*analysis.LatencyStats {
	top := net.Topology()
	servers := top.Servers()

	partials := make([]map[string]*analysis.LatencyStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rng *rand.Rand // the current source's stream
			out := map[string]*analysis.LatencyStats{}
			addPair := func(src, dst topology.ServerID) {
				key := top.Server(src).Addr.String() + "|" + top.Server(dst).Addr.String()
				st, ok := out[key]
				if !ok {
					st = analysis.NewLatencyStats()
					out[key] = st
				}
				// All k probes share the pair: go through a PairProber so
				// the plan is resolved once, not per probe.
				pr := net.PairProber(src, dst)
				spec := netsim.ProbeSpec{Src: src, Dst: dst, DstPort: 8765}
				rec := probe.Record{Src: top.Server(src).Addr, Dst: top.Server(dst).Addr}
				for i := 0; i < k; i++ {
					spec.SrcPort = uint16(33000 + rng.IntN(20000))
					res := pr.Probe(&spec, rng)
					rec.RTT, rec.Err = res.RTT, res.Err
					st.Add(&rec)
				}
			}
			for si := w; si < len(servers); si += workers {
				s := &servers[si]
				if !participates(s.ID) {
					continue
				}
				rng = rand.New(rand.NewPCG(seed, uint64(s.ID)))
				for _, peer := range top.PodOf(s.ID).Servers {
					if peer != s.ID && participates(peer) {
						addPair(s.ID, peer)
					}
				}
				for psi := range top.DCs[s.DC].Podsets {
					for qi := range top.DCs[s.DC].Podsets[psi].Pods {
						if psi == s.Podset && qi == s.Pod {
							continue
						}
						pod := &top.DCs[s.DC].Podsets[psi].Pods[qi]
						if s.Rank < len(pod.Servers) && participates(pod.Servers[s.Rank]) {
							addPair(s.ID, pod.Servers[s.Rank])
						}
					}
				}
			}
			partials[w] = out
		}(w)
	}
	wg.Wait()

	merged := partials[0]
	for _, part := range partials[1:] {
		for key, st := range part {
			if cur, ok := merged[key]; ok {
				cur.Merge(st)
			} else {
				merged[key] = st
			}
		}
	}
	return merged
}
