// Isitnetwork: the "is it a network issue?" triage workflow of §4.3.
//
// A service owner reports a latency regression. Before Pingmesh, the
// network on-call would ask for source-destination pairs and manually run
// tools. With Pingmesh, the always-on latency data answers directly: every
// SLA row the pipeline publishes carries the verdict of the paper's SLA
// rule (drop rate above 1e-3 or P99 above 5ms, over at least 100
// successful probes).
//
// Two incidents are replayed:
//
//  1. The service's own servers are overloaded (end-host stalls). Users
//     scream "network!", but Pingmesh shows drop rate and P99 within SLA:
//     verdict not-network.
//  2. A Spine silently drops packets. Pingmesh shows the drop rate blowing
//     through the 1e-3 threshold: verdict network — with the affected
//     scope's alert attached.
//
// Run with:
//
//	go run ./examples/isitnetwork
package main

import (
	"fmt"
	"log"
	"time"

	"pingmesh"
	"pingmesh/internal/analysis"
)

func main() {
	spec := pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}}

	fmt.Println("== incident 1: service overload (looks like 'the network') ==")
	{
		// The service's servers run hot: the application's own stalls
		// inflate user-perceived latency. The *network* profile here is a
		// healthy DC2-style fabric.
		tb := newTestbed(spec, 21)
		verdict(tb, "users report 99th-percentile latency spikes")
	}

	fmt.Println("\n== incident 2: a Spine silently drops 1.5% of packets ==")
	{
		tb := newTestbed(spec, 22)
		spine := tb.Top.DCs[0].Spines[1]
		tb.Net.SetRandomDrop(spine, 0.015, true)
		verdict(tb, "users report timeouts and retries")
	}
}

func newTestbed(spec pingmesh.TopologySpec, seed uint64) *pingmesh.SimTestbed {
	tb, err := pingmesh.NewSimTestbed(spec, pingmesh.SimOptions{Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	return tb
}

// verdict pulls the always-on Pingmesh data for the window and prints the
// verdict the pipeline gave its SLA row.
func verdict(tb *pingmesh.SimTestbed, complaint string) {
	fmt.Printf("complaint: %s\n", complaint)
	from := tb.Clock.Now()
	if err := tb.RunWindow(30 * time.Minute); err != nil {
		log.Fatal(err)
	}
	if err := tb.Pipeline.RunTenMinute(from, tb.Clock.Now()); err != nil {
		log.Fatal(err)
	}

	rows, err := tb.DB().Query("sla")
	if err != nil || len(rows) == 0 {
		log.Fatalf("no SLA data: %v", err)
	}
	r := rows[0]
	fmt.Printf("pingmesh says: %s probes=%d p99=%v drop_rate=%.2e\n",
		r["scope"], r["probes"], r["p99"], r["drop_rate"])
	fmt.Printf("verdict: %s (%s)\n", r["verdict"], r["reason"])
	switch r["verdict"] {
	case analysis.VerdictNetwork:
		fmt.Println("         engage the network team")
		for _, a := range tb.Alerts() {
			fmt.Println("  alert:", a.String())
		}
	case analysis.VerdictNotNetwork:
		fmt.Println("         look at the service's own servers (CPU, GC pauses, app bugs)")
	}
}
