// Command pingmesh-controller runs a Pingmesh Controller: it loads a
// network topology spec, generates a pinglist for every server, and serves
// them over the RESTful web API agents poll. Run several replicas behind a
// load-balanced VIP for fault tolerance (§3.3.2).
//
// Usage:
//
//	pingmesh-controller -topology topology.json -listen :8080 [-save-dir dir]
//
// The topology file is a JSON topology.Spec; see examples/quickstart for a
// generated one. The same listener takes the agents' PMT1 perfcounter
// reports on POST /telemetry/report (§3.5), from the topology's servers
// only; the fleet rollups are read on the -debug-addr port's /telemetry and
// /metrics. Each replica keeps its own collector, and the SLB spreads an
// agent's connections over the replicas, so the agents of a replicated
// controller point -telemetry-url at one replica's address, not the VIP.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/metrics"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/topology"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "path to the topology spec JSON (required)")
		listen    = flag.String("listen", ":8080", "HTTP listen address")
		saveDir   = flag.String("save-dir", "", "optionally persist generated pinglists to this directory")
		payload   = flag.Int("payload", 0, "add payload probe variants of this many bytes")
		debugAddr = flag.String("debug-addr", "", "serve pprof, /health, /metrics, and /telemetry on this address (empty = off)")

		telemetryEvery = flag.Duration("telemetry-sample", 5*time.Minute, "fleet rollup sampling interval")
	)
	flag.Parse()
	if *topoPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*topoPath)
	if err != nil {
		log.Fatalf("open topology: %v", err)
	}
	spec, err := topology.ReadSpec(f)
	f.Close()
	if err != nil {
		log.Fatalf("parse topology: %v", err)
	}
	top, err := topology.Build(spec)
	if err != nil {
		log.Fatalf("build topology: %v", err)
	}

	cfg := core.DefaultGeneratorConfig()
	cfg.PayloadBytes = *payload
	col := telemetry.NewCollector(telemetry.CollectorConfig{SampleInterval: *telemetryEvery})
	go col.Run(context.Background())
	ctrl, err := controller.New(top, cfg, nil)
	if err != nil {
		log.Fatalf("controller: %v", err)
	}
	if *saveDir != "" {
		if err := ctrl.SaveToDir(*saveDir); err != nil {
			log.Fatalf("save pinglists: %v", err)
		}
	}
	if *debugAddr != "" {
		exp := metrics.NewExposition()
		exp.Add("", ctrl.Metrics())
		exp.Add("", col.Metrics())
		dbg, err := debugsrv.Serve(*debugAddr, debugsrv.Config{Metrics: exp, Series: col.Store()})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s\n", dbg.Addr())
	}
	fmt.Printf("pingmesh-controller: %d servers, %d pinglists, version %s, listening on %s\n",
		top.NumServers(), ctrl.PinglistCount(), ctrl.Version(), *listen)
	log.Fatal(http.ListenAndServe(*listen, handler(ctrl, col, top)))
}

// handler is the controller's one listener: the pinglist API, and the
// collector under /telemetry/ so a single controller takes its agents'
// reports at the address they already poll (§3.3.2). The collector admits
// reports from top's servers only: the listener is open, and its tables
// grow with every new agent name.
func handler(ctrl *controller.Controller, col *telemetry.Collector, top *topology.Topology) http.Handler {
	known := func(src []byte) bool {
		_, ok := top.ServerByName(string(src))
		return ok
	}
	mux := http.NewServeMux()
	mux.Handle("/", ctrl.Handler())
	mux.Handle("/telemetry/", http.StripPrefix("/telemetry", col.Handler(known)))
	return mux
}
