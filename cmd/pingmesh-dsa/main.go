// Command pingmesh-dsa runs the analysis half of Pingmesh over latency
// record CSV files (agents' local logs or exported batches): it computes
// per-scope network SLAs with the drop-rate heuristic, fires threshold
// alerts, and — given the topology — runs black-hole detection (§3.5, §4,
// §5.1).
//
// Usage:
//
//	pingmesh-dsa -topology topology.json record1.csv record2.csv ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/blackhole"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "topology spec JSON for scope/black-hole analysis (optional)")
		maxDrop   = flag.Float64("alert-drop", 1e-3, "drop rate alert threshold")
		maxP99    = flag.Duration("alert-p99", 5*time.Millisecond, "P99 latency alert threshold")
		debugAddr = flag.String("debug-addr", "", "serve pprof on this address while the analysis runs (empty = off)")
		diagnose  = flag.Bool("diagnose", false, "rank root-cause suspect switches from failed probes (requires -topology)")
	)
	flag.Parse()
	if *debugAddr != "" {
		dbg, err := debugsrv.Serve(*debugAddr, debugsrv.Config{})
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s\n", dbg.Addr())
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: pingmesh-dsa [-topology spec.json] file.csv...")
		os.Exit(2)
	}

	var recs []probe.Record
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("read %s: %v", path, err)
		}
		got, errs := probe.DecodeBatch(data)
		if len(errs) > 0 {
			fmt.Fprintf(os.Stderr, "%s: skipped %d corrupt rows\n", path, len(errs))
		}
		recs = append(recs, got...)
	}
	fmt.Printf("loaded %d records\n", len(recs))

	if *diagnose {
		if *topoPath == "" {
			log.Fatal("-diagnose requires -topology")
		}
		// No path resolver for CSV uploads: the collector attributes votes
		// over topology candidate stage sets.
		top := loadTopology(*topoPath)
		col := diagnosis.NewCollector(diagnosis.CollectorConfig{Top: top})
		col.ObserveBatch(recs)
		r := col.Snapshot(16)
		fmt.Printf("diagnosis: observed=%d failures=%d\n", r.Observed, r.Failures)
		if len(r.Candidates) == 0 {
			fmt.Println("diagnosis: no failures, empty ranking")
		}
		for i, c := range r.Candidates {
			fmt.Printf("%2d. %-20s score=%.4f votes=%.1f coverage=%.1f\n",
				i+1, top.Switch(c.Switch).Name, c.Score, c.Votes, c.Coverage)
		}
	}

	th := analysis.Thresholds{MaxDropRate: *maxDrop, MaxP99: *maxP99, MinProbes: 100}

	// The headline SLA metric is the intra-DC SYN RTT; inter-DC WAN
	// latency is tracked separately so a 25ms WAN round trip does not
	// trip the 5ms intra-DC threshold (§3.5's separate inter-DC pipeline).
	overall := analysis.NewLatencyStats()
	interDC := analysis.NewLatencyStats()
	for i := range recs {
		if recs[i].Class == probe.InterDC {
			interDC.Add(&recs[i])
			continue
		}
		if recs[i].PayloadLen == 0 {
			overall.Add(&recs[i])
		}
	}
	s := overall.Summary()
	fmt.Printf("intra-dc: n=%d p50=%v p99=%v p99.9=%v drop_rate=%.2e failure_rate=%.2e\n",
		s.Count, s.P50, s.P99, s.P999, overall.DropRate(), overall.FailureRate())
	if interDC.Total() > 0 {
		fmt.Printf("inter-dc: n=%d p50=%v p99=%v drop_rate=%.2e\n",
			interDC.Total(), interDC.Percentile(0.5), interDC.Percentile(0.99), interDC.DropRate())
	}

	if a := analysis.Check("intra-dc", overall, th, time.Now()); a != nil {
		fmt.Println("ALERT:", a)
	}

	if *topoPath == "" {
		return
	}
	top := loadTopology(*topoPath)
	keyer := &analysis.Keyer{Top: top}

	// Per-DC SLA.
	byDC := map[string]*analysis.LatencyStats{}
	pairs := map[string]*analysis.LatencyStats{}
	for i := range recs {
		r := &recs[i]
		if r.Class == probe.InterDC {
			if key, ok := keyer.ServerPair(r); ok {
				st := pairs[key]
				if st == nil {
					st = analysis.NewLatencyStats()
					pairs[key] = st
				}
				st.Add(r)
			}
			continue
		}
		if key, ok := keyer.SrcDC(r); ok {
			st := byDC[key]
			if st == nil {
				st = analysis.NewLatencyStats()
				byDC[key] = st
			}
			st.Add(r)
		}
		if key, ok := keyer.ServerPair(r); ok {
			st := pairs[key]
			if st == nil {
				st = analysis.NewLatencyStats()
				pairs[key] = st
			}
			st.Add(r)
		}
	}
	var dcs []string
	for dc := range byDC {
		dcs = append(dcs, dc)
	}
	sort.Strings(dcs)
	for _, dc := range dcs {
		st := byDC[dc]
		fmt.Printf("dc %s: n=%d p50=%v p99=%v drop_rate=%.2e\n",
			dc, st.Total(), st.Percentile(0.5), st.Percentile(0.99), st.DropRate())
		if a := analysis.Check("dc/"+dc, st, th, time.Now()); a != nil {
			fmt.Println("ALERT:", a)
		}
	}

	det := blackhole.Detect(top, pairs, blackhole.Config{})
	for _, c := range det.Candidates {
		fmt.Printf("black-hole candidate: %s score=%.2f\n", top.Switch(c.ToR).Name, c.Score)
	}
	for _, e := range det.Escalations {
		fmt.Printf("escalation: DC %s podset %d (fault above the ToR layer)\n", top.DCs[e.DC].Name, e.Podset)
	}
	if len(det.Candidates) == 0 && len(det.Escalations) == 0 {
		fmt.Println("black-hole detection: clean")
	}
}

func loadTopology(path string) *topology.Topology {
	f, err := os.Open(path)
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
	return top
}
