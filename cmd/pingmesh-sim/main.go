// Command pingmesh-sim runs a whole simulated Pingmesh deployment: it
// builds a multi-DC testbed, optionally injects a fault, replays a window
// of fleet probing through the storage and analysis pipeline, and prints
// the SLA table, any alerts, and the visualization heatmap with its
// pattern classification.
//
// Usage:
//
//	pingmesh-sim [-hours 1] [-fault none|blackhole|spine-drop|podset-down|podset-storm] [-svg out.svg]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"pingmesh"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/dsa"
	"pingmesh/internal/netsim"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/topology"
)

func main() {
	var (
		hours     = flag.Int("hours", 1, "simulated hours of probing")
		fault     = flag.String("fault", "none", "fault to inject: none, blackhole, spine-drop, podset-down, podset-storm")
		svg       = flag.String("svg", "", "write the heatmap as SVG to this path")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		topoPath  = flag.String("topology", "", "optional topology spec JSON (default: built-in 48-server DC)")
		debugAddr = flag.String("debug-addr", "", "serve pprof, /debug/trace, and /health on this address (empty = off)")
	)
	flag.Parse()

	spec := pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}}
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			log.Fatalf("open topology: %v", err)
		}
		spec, err = topology.ReadSpec(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse topology: %v", err)
		}
	}
	tb, err := pingmesh.NewSimTestbed(spec, pingmesh.SimOptions{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		dbg, err := debugsrv.Serve(*debugAddr, debugsrv.Config{Tracer: tb.Tracer})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s\n", dbg.Addr())
	}

	switch *fault {
	case "none":
	case "blackhole":
		// A type-1 (address-pattern) TCAM black-hole covering ~40% of the
		// pair space — the paper's most common kind (§5.1).
		tor := tb.Top.ToRs(0)[2]
		tb.Net.AddBlackhole(tor, netsim.Blackhole{MatchFraction: 0.4})
		fmt.Printf("injected: black-hole on %s\n", tb.Top.Switch(tor).Name)
	case "spine-drop":
		spine := tb.Top.DCs[0].Spines[0]
		tb.Net.SetRandomDrop(spine, 0.015, true)
		fmt.Printf("injected: 1.5%% silent random drop on %s\n", tb.Top.Switch(spine).Name)
	case "podset-down":
		tb.Net.SetPodsetDown(0, 1, true)
		fmt.Println("injected: podset 1 powered down")
	case "podset-storm":
		tb.Net.SetPodsetDegraded(0, 1, netsim.Degradation{ExtraLatencyMean: 12 * time.Millisecond})
		fmt.Println("injected: broadcast storm in podset 1")
	default:
		fmt.Fprintf(os.Stderr, "unknown fault %q\n", *fault)
		os.Exit(2)
	}

	from := tb.Clock.Now()
	fmt.Printf("running %dh of fleet probing (%d servers)...\n", *hours, tb.Top.NumServers())
	if err := tb.RunWindow(time.Duration(*hours) * time.Hour); err != nil {
		log.Fatal(err)
	}
	to := tb.Clock.Now()
	if err := tb.AnalyzeWindow(from, to); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n-- SLA --")
	rows, err := tb.DB().Query(dsa.TableSLA, reportdb.OrderBy("scope"))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%-14s probes=%-8d p50=%-10v p99=%-10v drop=%.2e fail=%.2e\n",
			r["scope"], r["probes"], r["p50"], r["p99"], r["drop_rate"], r["failure_rate"])
	}

	fmt.Println("\n-- alerts --")
	alerts := tb.Alerts()
	if len(alerts) == 0 {
		fmt.Println("(none)")
	}
	for _, a := range alerts {
		fmt.Println(a.String())
	}

	fmt.Println("\n-- black-hole candidates --")
	bh, _ := tb.DB().Query(dsa.TableBlackholes)
	if len(bh) == 0 {
		fmt.Println("(none)")
	}
	for _, r := range bh {
		fmt.Printf("%s score=%.2f\n", r["tor"], r["score"])
	}
	if len(bh) > 0 {
		// Auto-repair: reload the candidates under the daily budget, then
		// verify the fabric is clean.
		rs := tb.NewRepairService(20)
		for _, r := range bh {
			if err := rs.Execute(autopilot.RepairAction{
				Kind:   autopilot.RepairReload,
				Device: r["tor"].(string),
				Reason: "pingmesh black-hole detection",
			}); err != nil {
				fmt.Println("repair stopped:", err)
				break
			}
			fmt.Printf("auto-repair: reloaded %s\n", r["tor"])
		}
		if len(tb.Net.FaultySwitches()) == 0 {
			fmt.Println("fabric clean after repair")
		}
	}

	fmt.Println("\n-- heatmap --")
	hm := tb.Pipeline.Heatmaps()[tb.Top.DCs[0].Name]
	h, cls := hm.Heatmap, hm.Classification
	fmt.Print(h.RenderASCII())
	fmt.Printf("pattern: %s", cls.Pattern)
	if cls.Podset >= 0 {
		fmt.Printf(" (podset %d)", cls.Podset)
	}
	fmt.Println()
	if *svg != "" {
		if err := os.WriteFile(*svg, []byte(h.RenderSVG()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}
}
