// Silentdrop: the §5.2 incident, end to end — a Spine switch silently
// drops ~1.5% of packets (nothing in its own counters), every service in
// the DC sees its drop rate explode, and the on-call drives the paper's
// workflow: confirm with Pingmesh data, pull affected pairs, TCP-traceroute
// them to pinpoint the switch, isolate it from live traffic, verify
// recovery, and RMA the hardware (a reload cannot fix bit flips).
//
// Run with:
//
//	go run ./examples/silentdrop
package main

import (
	"fmt"
	"log"
	"time"

	"pingmesh"
	"pingmesh/internal/autopilot"
)

func main() {
	tb, err := pingmesh.NewSimTestbed(pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 8},
	}}, pingmesh.SimOptions{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}

	// Each phase of the incident is a timeline step: mutate the fabric, let
	// the fleet probe for 20 minutes, aggregate the DC's intra-DC SYN probes.
	phase := func(name string, mutate func(*pingmesh.SimTestbed)) pingmesh.TimelinePhase {
		phases, err := tb.RunTimeline([]pingmesh.TimelineStep{{Name: name, Duration: 20 * time.Minute, Mutate: mutate}})
		if err != nil {
			log.Fatal(err)
		}
		ph := phases[0]
		fmt.Printf("%-22s drop_rate=%.2e p99=%v\n", name, ph.Stats.DropRate(), ph.Stats.Percentile(0.99))
		return ph
	}

	fmt.Println("== phase 1: normal operations ==")
	baseline := phase("baseline", nil).Stats.DropRate()

	// The incident: bit flips in one Spine's fabric module.
	spine := tb.Top.DCs[0].Spines[5]
	fmt.Println("\n== phase 2: incident (invisible in switch counters) ==")
	during := phase("during incident", func(tb *pingmesh.SimTestbed) { tb.Net.SetRandomDrop(spine, 0.015, true) })
	incident := during.Stats.DropRate()
	if incident < baseline*5 {
		fmt.Println("(spike not yet visible; production would watch more windows)")
	}
	// The 10-minute SLA job over the same window is what pages the on-call.
	if err := tb.Pipeline.RunTenMinute(during.From, during.To); err != nil {
		log.Fatal(err)
	}
	for _, a := range tb.Alerts() {
		fmt.Println("ALERT:", a.String())
	}

	// Localize: pull the affected pairs out of the stored Pingmesh data and
	// TCP-traceroute them.
	fmt.Println("\n== phase 3: localization (Pingmesh + TCP traceroute) ==")
	suspects, err := tb.LocalizeSilentDrops(during.From, during.To)
	if err != nil {
		log.Fatal(err)
	}
	if len(suspects) == 0 || suspects[0].Switch != spine {
		log.Fatalf("localization missed the injected %s: %v", tb.Top.Switch(spine).Name, suspects)
	}
	top := suspects[0]
	fmt.Printf("suspect: %s (per-hop loss ~%.1f%%, implicated by %d traced five-tuples) — injected: %s\n",
		tb.Top.Switch(top.Switch).Name, top.Loss*100, top.Tuples, tb.Top.Switch(spine).Name)

	// Mitigate through the repair service: isolate from live traffic.
	fmt.Println("\n== phase 4: mitigation ==")
	rs := tb.NewRepairService()
	if err := rs.Execute(autopilot.RepairAction{
		Kind: autopilot.RepairIsolate, Device: tb.Top.Switch(top.Switch).Name,
		Reason: "silent random packet drops (pingmesh+traceroute)",
	}); err != nil {
		log.Fatal(err)
	}
	if recovered := phase("after isolation", nil).Stats.DropRate(); recovered < incident/3 {
		fmt.Println("recovery confirmed: drop rate back at baseline")
	}

	// A reload does not fix hardware; RMA does.
	fmt.Println("\n== phase 5: repair ==")
	tb.Net.ReloadSwitch(spine)
	fmt.Printf("after reload: still faulty = %v (bit flips need RMA)\n", tb.Net.SwitchFaulty(spine))
	if err := rs.Execute(autopilot.RepairAction{
		Kind: autopilot.RepairRMA, Device: tb.Top.Switch(spine).Name,
		Reason: "fabric module bit flips",
	}); err != nil {
		log.Fatal(err)
	}
	tb.Net.UnisolateSwitch(spine)
	fmt.Printf("after RMA: faulty = %v; switch back in rotation\n", tb.Net.SwitchFaulty(spine))
}
