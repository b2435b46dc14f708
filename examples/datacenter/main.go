// Datacenter: a simulated multi-DC Pingmesh deployment with service-level
// SLA tracking.
//
// It builds two data centers with the paper's DC1 (throughput-heavy) and
// DC2 (latency-sensitive Search) profiles, defines a "search" service over
// part of DC2, replays two hours of fleet probing through the full storage
// and analysis pipeline, and prints the per-DC and per-service network
// SLAs, the inter-DC latency, and the health heatmap — the everyday
// Pingmesh workflow of §4.
//
// Run with:
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"time"

	"pingmesh"
	"pingmesh/internal/analysis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/scope"
)

func main() {
	spec := pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}}

	// The service map: Search runs on DC2's first podset (§4.3: service
	// SLA comes from mapping services to the servers they use).
	tmpTop, err := pingmesh.BuildTopology(spec)
	if err != nil {
		log.Fatal(err)
	}
	searchServers := tmpTop.DCs[1].Podsets[0].Servers()
	search := analysis.ServiceFromServers("search", tmpTop, searchServers)

	tb, err := pingmesh.NewSimTestbed(spec, pingmesh.SimOptions{
		Profiles: []pingmesh.NetworkProfile{netsim.DC1Profile(), netsim.DC2Profile()},
		Services: []*pingmesh.Service{search},
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet: %d servers, %d switches across %d DCs\n",
		tb.Top.NumServers(), tb.Top.NumSwitches(), len(tb.Top.DCs))
	fmt.Printf("service %q: %d servers\n", search.Name, search.Size())

	from := tb.Clock.Now()
	fmt.Println("replaying 2h of fleet probing...")
	if err := tb.RunWindow(2 * time.Hour); err != nil {
		log.Fatal(err)
	}
	if err := tb.AnalyzeWindow(from, tb.Clock.Now()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nnetwork SLA (per scope):")
	rows, err := tb.DB().Query(dsa.TableSLA, reportdb.OrderBy("scope"))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		scope := r["scope"].(string)
		if len(scope) > 4 && scope[:4] == "pod/" {
			continue // keep the output at DC/service granularity
		}
		fmt.Printf("  %-16s probes=%-8d p50=%-10v p99=%-10v drop=%.2e\n",
			scope, r["probes"], r["p50"], r["p99"], r["drop_rate"])
	}

	fmt.Println("\ninter-DC latency (the DC-level complete graph):")
	interDC := interDCStats(tb, from, tb.Clock.Now())
	fmt.Printf("  DC1<->DC2 probes=%d p50=%v p99=%v\n",
		interDC.Total(), interDC.Percentile(0.5), interDC.Percentile(0.99))

	if alerts := tb.Alerts(); len(alerts) > 0 {
		fmt.Println("\nALERTS:")
		for _, a := range alerts {
			fmt.Println(" ", a.String())
		}
	} else {
		fmt.Println("\nno SLA violations: the network is healthy")
	}

	hm := tb.Pipeline.Heatmaps()["DC2"]
	fmt.Printf("\nDC2 health heatmap:\n%s", hm.Heatmap.RenderASCII())
	fmt.Printf("pattern: %s\n", hm.Classification.Pattern)
}

// interDCStats aggregates the stored inter-DC probes of [from, to) with one
// ad-hoc job — the store holds what agents upload, sketches and raw records,
// and a job reads both.
func interDCStats(tb *pingmesh.SimTestbed, from, to time.Time) *pingmesh.LatencyStats {
	res, err := scope.Run(scope.Job{
		Name:   "inter-dc",
		Source: scope.Source{Store: tb.Store, StreamPrefix: "pingmesh"},
		From:   from, To: to,
		Where: func(r *probe.Record) bool { return r.Class == probe.InterDC },
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Get("")
}
