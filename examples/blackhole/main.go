// Blackhole: inject ToR packet black-holes, watch Pingmesh detect them
// from latency data alone, and let auto-repair reload the switches within
// the daily budget (§5.1).
//
// The scenario: three ToRs develop TCAM corruption (one of them the
// port-sensitive type-2 kind). Their own counters show nothing — the
// drops are deterministic and silent. The daily black-hole job scores
// every ToR by the fraction of its servers showing the "can't reach some
// peers that everyone else reaches" symptom, reloads the candidates, and
// the fleet goes clean.
//
// Run with:
//
//	go run ./examples/blackhole
package main

import (
	"fmt"
	"log"
	"time"

	"pingmesh"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/netsim"
)

func main() {
	var detections []pingmesh.Detection
	tb, err := pingmesh.NewSimTestbed(pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}}, pingmesh.SimOptions{
		Seed:        7,
		OnDetection: func(d pingmesh.Detection) { detections = append(detections, d) },
	})
	if err != nil {
		log.Fatal(err)
	}

	// Three ToRs develop black-holes: two address-based (type 1), one
	// port-sensitive (type 2).
	bad := []pingmesh.SwitchID{tb.Top.ToRs(0)[1], tb.Top.ToRs(0)[6], tb.Top.ToRs(0)[9]}
	tb.Net.AddBlackhole(bad[0], netsim.Blackhole{MatchFraction: 0.4})
	tb.Net.AddBlackhole(bad[1], netsim.Blackhole{MatchFraction: 0.35})
	tb.Net.AddBlackhole(bad[2], netsim.Blackhole{MatchFraction: 0.45, IncludePorts: true})
	for _, sw := range bad {
		fmt.Printf("injected black-hole on %s\n", tb.Top.Switch(sw).Name)
	}

	// A probing window feeds the daily job.
	from := tb.Clock.Now()
	fmt.Println("\nday 1: fleet probes for an hour (scaled), daily job runs...")
	if err := tb.RunWindow(time.Hour); err != nil {
		log.Fatal(err)
	}
	if err := tb.Pipeline.RunDaily(from, tb.Clock.Now()); err != nil {
		log.Fatal(err)
	}
	if len(detections) == 0 {
		log.Fatal("no detection produced")
	}
	det := detections[len(detections)-1]
	fmt.Printf("detector flagged %d ToRs:\n", len(det.Candidates))
	for _, c := range det.Candidates {
		fmt.Printf("  %s score=%.2f (fraction of its servers showing the symptom)\n",
			tb.Top.Switch(c.Switch).Name, c.Score)
	}

	// Auto-repair: reload the candidates, at most 20 per day.
	rs := tb.NewRepairService()
	reloaded := diagnosis.RepairBlackholes(det, tb.Top, rs)
	fmt.Printf("auto-repair reloaded %d switches (budget %d/day)\n", reloaded, 20)
	for _, h := range rs.History() {
		fmt.Printf("  %s %s: %s\n", h.Action.Kind, h.Action.Device, h.Action.Reason)
	}

	// Verify the network is clean: probe again, re-run detection.
	fmt.Println("\nday 2: verify...")
	from2 := tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		log.Fatal(err)
	}
	if err := tb.Pipeline.RunDaily(from2, tb.Clock.Now()); err != nil {
		log.Fatal(err)
	}
	det2 := detections[len(detections)-1]
	if len(det2.Candidates) == 0 && len(tb.Net.FaultySwitches()) == 0 {
		fmt.Println("clean: no black-hole candidates, no faulty switches remain")
	} else {
		fmt.Printf("still faulty: %d candidates, %d faulty switches\n",
			len(det2.Candidates), len(tb.Net.FaultySwitches()))
	}
}
