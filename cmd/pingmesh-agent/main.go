// Command pingmesh-agent runs a Pingmesh Agent on a real network: it
// starts the probe echo server, polls the controller for its pinglist, and
// probes its peers, writing results to a size-capped local CSV log
// (§3.4). Point -controller at the controller (or its SLB VIP); the agent
// also ships its perfcounters as PMT1 reports (§3.5), every
// -telemetry-interval, under the scope its -name spells, to the
// controller's /telemetry/report. Each controller replica keeps its own
// collector, so behind a VIP of several replicas set -telemetry-url to one
// replica's report endpoint: reports spread over replicas are refused as
// out of sequence.
//
// Usage:
//
//	pingmesh-agent -name DC1-ps00-pod00-s00 -source 10.0.0.1 \
//	    -controller http://controller:8080 -listen :8765 -log ./pingmesh.log
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/controller"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/metrics"
	"pingmesh/internal/netlib"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/trace"
)

// scopeFromName derives the rollup scope from a conventional server name:
// "DC1-ps00-pod00-s00" becomes "DC1.ps00.pod00". Names without the
// hierarchy fold into fleet-level rollups only.
func scopeFromName(name string) string {
	parts := strings.SplitN(name, "-", 4)
	if len(parts) < 4 {
		return ""
	}
	return strings.Join(parts[:3], ".")
}

// reportURL is where the agent ships reports: -telemetry-url if set, else
// the collector endpoint on the controller it polls.
func reportURL(telemetryURL, ctrlURL string) string {
	if telemetryURL != "" {
		return telemetryURL
	}
	return strings.TrimSuffix(ctrlURL, "/") + "/telemetry/report"
}

func main() {
	var (
		name           = flag.String("name", "", "this server's name, as known to the controller (required)")
		source         = flag.String("source", "", "this server's IP address (required)")
		ctrlURL        = flag.String("controller", "", "controller base URL (required)")
		listen         = flag.String("listen", ":8765", "probe server listen address")
		logPath        = flag.String("log", "pingmesh.log", "local latency log path")
		logMax         = flag.Int64("log-max-bytes", 8<<20, "local log size cap")
		statsEvery     = flag.Duration("stats", time.Minute, "perf counter print interval")
		debugAddr      = flag.String("debug-addr", "", "serve pprof, /debug/trace, /health, and /metrics on this address (empty = off)")
		traceSample    = flag.Uint64("trace-sample", 0, "trace 1 in N probes end to end (0 = off)")
		telemetryURL   = flag.String("telemetry-url", "", "PMT1 report endpoint (default <controller>/telemetry/report; one replica's, behind a VIP of several)")
		telemetryEvery = flag.Duration("telemetry-interval", 5*time.Minute, "perfcounter report interval")
	)
	flag.Parse()
	if *name == "" || *source == "" || *ctrlURL == "" {
		flag.Usage()
		os.Exit(2)
	}
	addr, err := netip.ParseAddr(*source)
	if err != nil {
		log.Fatalf("bad -source: %v", err)
	}

	// Every Pingmesh server answers probes, even when its own probing is
	// failed-closed.
	srv, err := netlib.NewTCPServer(*listen)
	if err != nil {
		log.Fatalf("probe server: %v", err)
	}
	defer srv.Close()

	localLog, err := agent.NewLocalLog(*logPath, *logMax)
	if err != nil {
		log.Fatalf("local log: %v", err)
	}
	defer localLog.Close()

	tracer := trace.Default()
	tracer.SetSampleEvery(*traceSample)
	a, err := agent.New(agent.Config{
		ServerName: *name,
		SourceAddr: addr,
		Controller: &controller.Client{BaseURL: *ctrlURL},
		Prober:     agent.NewRealProber(25 * time.Second),
		LocalLog:   localLog,
		Tracer:     tracer,
	})
	if err != nil {
		log.Fatalf("agent: %v", err)
	}
	if *debugAddr != "" {
		exp := metrics.NewExposition()
		exp.Add("", a.Metrics())
		dbg, err := debugsrv.Serve(*debugAddr, debugsrv.Config{Tracer: tracer, Metrics: exp})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s\n", dbg.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sh := &telemetry.Shipper{
		URL: reportURL(*telemetryURL, *ctrlURL), Src: *name, Scope: scopeFromName(*name),
		Registry: a.Metrics(), Interval: *telemetryEvery,
	}
	go sh.Run(ctx)
	go func() {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				snap := a.Metrics().Snapshot()
				fmt.Printf("peers=%d probes=%d failed=%d drop_rate=%.2e failed_closed=%v\n",
					a.PeerCount(),
					snap.Counters["agent.probes_total"],
					snap.Counters["agent.probes_failed"],
					a.DropRate(),
					a.FailedClosed())
			}
		}
	}()
	fmt.Printf("pingmesh-agent %s: probe server on %s, controller %s\n", *name, srv.Addr(), *ctrlURL)
	a.Run(ctx)
}
