// Command pingmesh-sim runs a whole simulated Pingmesh deployment: it
// builds a multi-DC testbed, optionally injects a fault, and replays fleet
// probing through the storage and analysis pipeline in cycles — a cycle is
// -hours simulated hours of probing followed by one DSA run over those
// whole hours, so every cycle lands on the window grid. The fault goes in
// before cycle -fault-after.
//
// Without -addr it runs cycles up to and including the first faulted one
// and prints the SLA table, any alerts, the black-hole candidates (which it
// auto-repairs) and the visualization heatmap with its pattern
// classification. With -addr it serves the read-side portal instead and
// runs a cycle every -interval until killed, logging one line per cycle:
//
//	GET /              service index: epoch, scopes, heatmaps, endpoints
//	GET /sla/dc/DC1    one scope (also pod/..., podset/..., service/...)
//	GET /heatmap/DC1   pod-pair matrix + Figure 8 pattern (add .svg to draw)
//	GET /alerts        recent SLA violations, newest first
//	GET /triage?src=d0.s0.p0&dst=d0.s1.p1
//	GET /diagnose      vote ranking; ?src=&dst= for a pair's evidence chain
//	GET /metrics       Prometheus text exposition
//
// Usage:
//
//	pingmesh-sim [-hours 1] [-fault none|blackhole|spine-drop|spine-degrade|podset-down|podset-storm]
//	             [-fault-after 0] [-svg out.svg] [-addr :8080 [-interval 2s]]
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
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

// faults is the one fault table: each entry injects into the testbed and
// returns the line announcing it.
var faults = map[string]func(tb *pingmesh.SimTestbed) string{
	"none": func(*pingmesh.SimTestbed) string { return "" },
	"blackhole": func(tb *pingmesh.SimTestbed) string {
		// A type-1 (address-pattern) TCAM black-hole covering ~40% of the
		// pair space — the paper's most common kind (§5.1).
		tor := tb.Top.ToRs(0)[2]
		tb.Net.AddBlackhole(tor, netsim.Blackhole{MatchFraction: 0.4})
		return "black-hole on " + tb.Top.Switch(tor).Name
	},
	"spine-drop": func(tb *pingmesh.SimTestbed) string {
		spine := tb.Top.DCs[0].Spines[0]
		tb.Net.SetRandomDrop(spine, 0.015, true)
		return "1.5% silent random drop on " + tb.Top.Switch(spine).Name
	},
	"spine-degrade": func(tb *pingmesh.SimTestbed) string {
		tb.Net.SetTierDegraded(0, pingmesh.TierSpine, netsim.Degradation{ExtraLatencyMean: 10 * time.Millisecond})
		return "spine tier degraded (+10ms)"
	},
	"podset-down": func(tb *pingmesh.SimTestbed) string {
		tb.Net.SetPodsetDown(0, 1, true)
		return "podset 1 powered down"
	},
	"podset-storm": func(tb *pingmesh.SimTestbed) string {
		tb.Net.SetPodsetDegraded(0, 1, netsim.Degradation{ExtraLatencyMean: 12 * time.Millisecond})
		return "broadcast storm in podset 1"
	},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pingmesh-sim:", err)
		os.Exit(1)
	}
}

// sim is a testbed and its cycle settings.
type sim struct {
	tb         *pingmesh.SimTestbed
	out        io.Writer
	hours      int
	fault      string
	faultAfter int
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pingmesh-sim", flag.ContinueOnError)
	var (
		svg       = fs.String("svg", "", "without -addr, write the heatmap as SVG to this path")
		debugAddr = fs.String("debug-addr", "", "serve pprof, /debug/trace, and /health on this address (empty = off)")
		addr      = fs.String("addr", "", "serve the portal on this address and run cycles until killed (empty = print one report)")
		interval  = fs.Duration("interval", 2*time.Second, "with -addr, real time between cycles")
	)
	s, err := newSim(fs, args, stdout)
	if err != nil {
		return err
	}
	if *addr != "" && *svg != "" {
		return fmt.Errorf("-svg is for the printed report; the portal serves /heatmap/<dc>.svg")
	}
	if *debugAddr != "" {
		dbg, err := debugsrv.Serve(*debugAddr, debugsrv.Config{Tracer: s.tb.Tracer})
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(stdout, "debug server on http://%s\n", dbg.Addr())
	}
	if *addr != "" {
		return s.serve(*addr, *interval)
	}
	for c := 0; c <= s.faultAfter; c++ {
		if _, err := s.cycle(c, true); err != nil {
			return err
		}
	}
	return s.report(*svg)
}

// newSim parses the flags every mode shares into fs and builds the testbed.
func newSim(fs *flag.FlagSet, args []string, stdout io.Writer) (*sim, error) {
	var (
		hours      = fs.Int("hours", 1, "simulated hours of probing per cycle")
		fault      = fs.String("fault", "none", "fault to inject: none, blackhole, spine-drop, spine-degrade, podset-down, podset-storm")
		faultAfter = fs.Int("fault-after", 0, "inject the fault before this cycle (0: before the first)")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		topoPath   = fs.String("topology", "", "optional topology spec JSON (default: built-in 48-server DC)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if faults[*fault] == nil {
		return nil, fmt.Errorf("unknown fault %q", *fault)
	}
	if *hours < 1 || *faultAfter < 0 {
		return nil, fmt.Errorf("-hours must be at least 1 and -fault-after at least 0")
	}
	spec := pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}}
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			return nil, fmt.Errorf("open topology: %w", err)
		}
		spec, err = topology.ReadSpec(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parse topology: %w", err)
		}
	}
	tb, err := pingmesh.NewSimTestbed(spec, pingmesh.SimOptions{Seed: *seed})
	if err != nil {
		return nil, err
	}
	return &sim{tb: tb, out: stdout, hours: *hours, fault: *fault, faultAfter: *faultAfter}, nil
}

// cycle injects the fault if cycle n is the one it goes in before, probes
// for the cycle's hours (announcing them if asked) and runs the DSA over
// them, returning how long the DSA run took.
func (s *sim) cycle(n int, announce bool) (time.Duration, error) {
	if n == s.faultAfter {
		if msg := faults[s.fault](s.tb); msg != "" {
			fmt.Fprintf(s.out, "injected: %s\n", msg)
		}
	}
	if announce {
		fmt.Fprintf(s.out, "running %dh of fleet probing (%d servers)...\n", s.hours, s.tb.Top.NumServers())
	}
	from := s.tb.Clock.Now()
	if err := s.tb.RunWindow(time.Duration(s.hours) * time.Hour); err != nil {
		return 0, err
	}
	start := time.Now()
	err := s.tb.AnalyzeWindow(from, s.tb.Clock.Now())
	return time.Since(start), err
}

// serve publishes every cycle to the portal on addr, one cycle per interval.
func (s *sim) serve(addr string, interval time.Duration) error {
	p := s.tb.NewPortal()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close() // stops http.Serve when a cycle fails
	errc := make(chan error, 1)
	go func() { errc <- http.Serve(ln, p.Handler()) }()
	fmt.Fprintf(s.out, "pingmesh-sim: %d servers, portal on http://%s\n", s.tb.Top.NumServers(), ln.Addr())
	for c := 0; ; c++ {
		took, err := s.cycle(c, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "cycle %d: simulated %dh to %s, analyzed in %v, offgrid rescans %d, epoch %d published\n",
			c, s.hours, s.tb.Clock.Now().Format(time.RFC3339), took.Round(10*time.Microsecond),
			s.tb.Pipeline.JobMetrics()["dsa.cycle.offgrid_rescans"], p.Epoch())
		select {
		case err := <-errc:
			return err
		case <-time.After(interval):
		}
	}
}

// report prints what the cycles published.
func (s *sim) report(svg string) error {
	tb, out := s.tb, s.out
	fmt.Fprintln(out, "\n-- SLA --")
	rows, err := tb.DB().Query(dsa.TableSLA, reportdb.OrderBy("scope"))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s probes=%-8d p50=%-10v p99=%-10v drop=%.2e fail=%.2e\n",
			r["scope"], r["probes"], r["p50"], r["p99"], r["drop_rate"], r["failure_rate"])
	}

	fmt.Fprintln(out, "\n-- alerts --")
	alerts := tb.Alerts()
	if len(alerts) == 0 {
		fmt.Fprintln(out, "(none)")
	}
	for _, a := range alerts {
		fmt.Fprintln(out, a.String())
	}

	fmt.Fprintln(out, "\n-- black-hole candidates --")
	bh, _ := tb.DB().Query(dsa.TableBlackholes)
	if len(bh) == 0 {
		fmt.Fprintln(out, "(none)")
	}
	for _, r := range bh {
		fmt.Fprintf(out, "%s score=%.2f\n", r["tor"], r["score"])
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
				fmt.Fprintln(out, "repair stopped:", err)
				break
			}
			fmt.Fprintf(out, "auto-repair: reloaded %s\n", r["tor"])
		}
		if len(tb.Net.FaultySwitches()) == 0 {
			fmt.Fprintln(out, "fabric clean after repair")
		}
	}

	fmt.Fprintln(out, "\n-- heatmap --")
	hm := tb.Pipeline.Heatmaps()[tb.Top.DCs[0].Name]
	h, cls := hm.Heatmap, hm.Classification
	fmt.Fprint(out, h.RenderASCII())
	fmt.Fprintf(out, "pattern: %s", cls.Pattern)
	if cls.Podset >= 0 {
		fmt.Fprintf(out, " (podset %d)", cls.Podset)
	}
	fmt.Fprintln(out)
	if svg != "" {
		if err := os.WriteFile(svg, []byte(h.RenderSVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", svg)
	}
	return nil
}
