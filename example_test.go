package pingmesh_test

import (
	"fmt"
	"time"

	"pingmesh"
	"pingmesh/internal/netsim"
)

// A complete simulated Pingmesh deployment: probe a window, break the
// Spine tier, and let the visualization classify the damage (§6.3).
func Example() {
	tb, err := pingmesh.NewSimTestbed(pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}}, pingmesh.SimOptions{Seed: 1234})
	if err != nil {
		panic(err)
	}

	// An hour of fleet probing, then the hourly job publishes the DC's
	// heatmap with its pattern — what the portal serves.
	hour := func() pingmesh.Pattern {
		from := tb.Clock.Now()
		if err := tb.RunWindow(time.Hour); err != nil {
			panic(err)
		}
		if err := tb.Pipeline.RunHourly(from, tb.Clock.Now()); err != nil {
			panic(err)
		}
		return tb.Pipeline.Heatmaps()["DC1"].Classification.Pattern
	}
	fmt.Println("healthy pattern:", hour())

	// The Spine tier degrades; cross-podset latency goes out of SLA.
	tb.Net.SetTierDegraded(0, pingmesh.TierSpine, netsim.Degradation{ExtraLatencyMean: 10 * time.Millisecond})
	fmt.Println("incident pattern:", hour())

	// Output:
	// healthy pattern: normal
	// incident pattern: spine-failure
}
