package experiments

import (
	"fmt"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

// statsPrint renders everything a figure or table reads off a LatencyStats.
func statsPrint(st *analysis.LatencyStats) string {
	return fmt.Sprint(st.Total(), st.Success(), st.DropRate(), st.Summary(), st.PayloadSummary(), st.CDF())
}

// TestSamplersIndependentOfWorkers: the experiments' two samplers print the
// same numbers on any core count, so a figure read on one machine is the
// figure read on another.
func TestSamplersIndependentOfWorkers(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC3Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	net.AddBlackhole(top.ToRs(0)[1], netsim.Blackhole{MatchFraction: 0.4, IncludePorts: true})

	pairs := samplePairs(top, 0, pairCrossPodset, 7, 5)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// 1000 probes over 7 pairs: the first 6 pairs take 143, the last 142.
	one := measureDist(net, pairs, 1000, 1000, start, 9, 1)
	three := measureDist(net, pairs, 1000, 1000, start, 9, 3)
	if one.Total() != 1000 {
		t.Fatalf("measureDist took %d probes, want 1000", one.Total())
	}
	if a, b := statsPrint(one), statsPrint(three); a != b {
		t.Fatalf("measureDist at 1 and 3 workers:\n%s\n%s", a, b)
	}

	all := func(topology.ServerID) bool { return true }
	byOne := probeRelationPairs(net, 6, 11, 1, all)
	byThree := probeRelationPairs(net, 6, 11, 3, all)
	if len(byOne) == 0 || len(byOne) != len(byThree) {
		t.Fatalf("probeRelationPairs: %d pairs at 1 worker, %d at 3", len(byOne), len(byThree))
	}
	for key := range byOne {
		other, ok := byThree[key]
		if !ok {
			t.Fatalf("pair %s missing at 3 workers", key)
		}
		if a, b := statsPrint(byOne[key]), statsPrint(other); a != b {
			t.Fatalf("pair %s at 1 and 3 workers:\n%s\n%s", key, a, b)
		}
	}
}
