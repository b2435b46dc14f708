package diagnosis

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

// TestPropertyInjectedFaultsRank injects k <= 3 switch faults into
// randomized Clos topologies, synthesizes probe traffic over the exact
// ECMP paths, and requires every injected fault to land in the ranking's
// top k+1. With zero faults the ranking must be empty.
func TestPropertyInjectedFaultsRank(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xfa17, uint64(trial)))
			spec := topology.Spec{DCs: []topology.DCSpec{{
				Name:            "DC1",
				Podsets:         2 + int(rng.IntN(2)),
				PodsPerPodset:   2 + int(rng.IntN(3)),
				ServersPerPod:   2,
				LeavesPerPodset: 2 + int(rng.IntN(2)),
				Spines:          2 + int(rng.IntN(4)),
			}}}
			top, err := topology.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DefaultProfiles()[0]}})
			if err != nil {
				t.Fatal(err)
			}

			k := int(rng.IntN(4)) // 0..3 faults
			faulty := map[topology.SwitchID]float64{}
			switches := top.Switches()
			for len(faulty) < k {
				sw := switches[rng.IntN(len(switches))].ID
				if _, dup := faulty[sw]; dup {
					continue
				}
				faulty[sw] = 0.3 + 0.5*rng.Float64() // loud enough to matter
			}

			vt := NewVoteTable(top.NumSwitches())
			servers := top.Servers()
			var buf []topology.SwitchID
			for probe := 0; probe < 20000; probe++ {
				src := servers[rng.IntN(len(servers))].ID
				dst := servers[rng.IntN(len(servers))].ID
				if src == dst {
					continue
				}
				sport := uint16(32768 + rng.IntN(16384))
				hops, ok := net.AppendPath(buf[:0], src, dst, sport, 80)
				buf = hops
				if !ok {
					continue
				}
				failed := false
				for _, sw := range hops {
					if p, bad := faulty[sw]; bad && rng.Float64() < p {
						failed = true
						break
					}
				}
				vt.ObservePath(hops, failed)
			}

			ranked := vt.AppendRankGreedy(nil)
			if k == 0 {
				if len(ranked) != 0 {
					t.Fatalf("zero faults but ranking = %v", ranked)
				}
				return
			}
			limit := k + 1
			if len(ranked) < k {
				t.Fatalf("only %d candidates ranked for %d faults", len(ranked), k)
			}
			for sw := range faulty {
				found := false
				for i, c := range ranked {
					if i >= limit {
						break
					}
					if c.Switch == sw {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("fault %s (p=%.2f) not in top-%d of %v",
						top.Switch(sw).Name, faulty[sw], limit, ranked[:min(limit, len(ranked))])
				}
			}
		})
	}
}
