package diagnosis

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"pingmesh/internal/analysis"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// detectReference is the pre-refactor detector, copied from before the
// scoring moved onto the shared VoteTable; only its output is written in
// today's types, with each candidate's victim count as its Votes. It pins
// the detector's decisions: DetectBlackholes must produce identical
// BlackholeDetections.
//
// (With uniform pod size the vote mass is score*size, so the shared
// scorer's votes tiebreak coincides with the original ToR-ascending order
// whenever scores tie.)
func detectReference(top *topology.Topology, pairs map[string]*analysis.LatencyStats) BlackholeDetection {
	aliveDst := map[netip.Addr]bool{}
	aliveSrc := map[netip.Addr]bool{}
	for key, st := range pairs {
		src, dst, ok := analysis.SplitServerPair(key)
		if !ok || st.Success() == 0 {
			continue
		}
		aliveSrc[src] = true
		aliveDst[dst] = true
	}

	judged := map[topology.ServerID]int{}
	symptomatic := map[topology.ServerID]int{}
	for key, st := range pairs {
		if st.Total() < MinPairProbes {
			continue
		}
		src, dst, ok := analysis.SplitServerPair(key)
		if !ok {
			continue
		}
		if !aliveSrc[src] && !aliveDst[src] {
			continue
		}
		if !aliveDst[dst] && !aliveSrc[dst] {
			continue
		}
		srcID, okS := top.ServerByAddr(src)
		dstID, okD := top.ServerByAddr(dst)
		sym := st.FailureRate() >= pairFailureRate
		if okS {
			judged[srcID]++
			if sym {
				symptomatic[srcID]++
			}
		}
		if okD {
			judged[dstID]++
			if sym {
				symptomatic[dstID]++
			}
		}
	}
	victims := map[topology.ServerID]bool{}
	for id, n := range judged {
		if n > 0 && float64(symptomatic[id])/float64(n) >= victimPairFraction {
			victims[id] = true
		}
	}

	det := BlackholeDetection{Scores: map[topology.SwitchID]float64{}}
	type psKey struct{ dc, ps int }
	torsOf := map[psKey][]topology.SwitchID{}
	candidateSet := map[topology.SwitchID]bool{}
	victimsOf := map[topology.SwitchID]int{}

	for di := range top.DCs {
		for psi := range top.DCs[di].Podsets {
			ps := &top.DCs[di].Podsets[psi]
			for qi := range ps.Pods {
				pod := &ps.Pods[qi]
				nVictims := 0
				for _, sid := range pod.Servers {
					if victims[sid] {
						nVictims++
					}
				}
				score := float64(nVictims) / float64(len(pod.Servers))
				det.Scores[pod.ToR] = score
				victimsOf[pod.ToR] = nVictims
				torsOf[psKey{di, psi}] = append(torsOf[psKey{di, psi}], pod.ToR)
				if score >= blackholeScoreThreshold {
					candidateSet[pod.ToR] = true
				}
			}
		}
	}

	for key, tors := range torsOf {
		flagged := 0
		for _, tor := range tors {
			if candidateSet[tor] {
				flagged++
			}
		}
		if flagged == 0 {
			continue
		}
		if flagged == len(tors) && len(tors) > 1 {
			det.Escalations = append(det.Escalations, PodsetRef{DC: key.dc, Podset: key.ps})
			continue
		}
		for _, tor := range tors {
			if candidateSet[tor] {
				det.Candidates = append(det.Candidates, Candidate{Switch: tor, Score: det.Scores[tor], Votes: float64(victimsOf[tor])})
			}
		}
	}
	sort.Slice(det.Candidates, func(i, j int) bool {
		if det.Candidates[i].Score != det.Candidates[j].Score {
			return det.Candidates[i].Score > det.Candidates[j].Score
		}
		return det.Candidates[i].Switch < det.Candidates[j].Switch
	})
	sort.Slice(det.Escalations, func(i, j int) bool {
		if det.Escalations[i].DC != det.Escalations[j].DC {
			return det.Escalations[i].DC < det.Escalations[j].DC
		}
		return det.Escalations[i].Podset < det.Escalations[j].Podset
	})
	return det
}

// TestDetectMatchesReference feeds randomized pair stats (random failure
// rates, dead servers, partial coverage, VIP keys) through both
// DetectBlackholes and the pre-refactor copy and requires identical
// detections.
func TestDetectMatchesReference(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xb1ac, uint64(trial)))
			spp := 2 + int(rng.IntN(4))
			top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
				{Name: "DC1", Podsets: 2, PodsPerPodset: 2 + int(rng.IntN(3)),
					ServersPerPod: spp, LeavesPerPodset: 2, Spines: 2},
				{Name: "DC2", Podsets: 1 + int(rng.IntN(2)), PodsPerPodset: 2,
					ServersPerPod: spp, LeavesPerPodset: 2, Spines: 2},
			}})
			if err != nil {
				t.Fatal(err)
			}

			pairs := map[string]*analysis.LatencyStats{}
			servers := top.Servers()
			// Per-server failure bias: some servers fail most pairs (victims),
			// some never answer (dead), most are healthy.
			bias := make([]float64, len(servers))
			dead := make([]bool, len(servers))
			for i := range servers {
				switch r := rng.Float64(); {
				case r < 0.15:
					bias[i] = 0.7 + 0.3*rng.Float64()
				case r < 0.20:
					dead[i] = true
				default:
					bias[i] = 0.05 * rng.Float64()
				}
			}
			nPairs := 300 + int(rng.IntN(300))
			for k := 0; k < nPairs; k++ {
				i := int(rng.IntN(len(servers)))
				j := int(rng.IntN(len(servers)))
				if i == j {
					continue
				}
				key := servers[i].Addr.String() + "|" + servers[j].Addr.String()
				st, ok := pairs[key]
				if !ok {
					st = analysis.NewLatencyStats()
					pairs[key] = st
				}
				n := 1 + int(rng.IntN(12)) // some pairs below MinPairProbes
				for p := 0; p < n; p++ {
					rec := probe.Record{Src: servers[i].Addr, Dst: servers[j].Addr, RTT: 1000}
					if dead[j] || rng.Float64() < bias[i] || rng.Float64() < bias[j] {
						rec.Err = "timeout"
					}
					st.Add(&rec)
				}
			}
			// A few malformed / off-topology keys (VIPs, stale entries).
			pairs["garbage-key"] = analysis.NewLatencyStats()
			pairs["10.255.0.1|10.255.0.2"] = analysis.NewLatencyStats()

			got := DetectBlackholes(top, pairs)
			want := detectReference(top, pairs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DetectBlackholes diverged from pre-refactor reference:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}
