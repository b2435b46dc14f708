// Command pingmesh-dsa runs the analysis half of Pingmesh (§3.5) offline,
// over latency data in files: agents' local CSV logs, or the PMB1 batches
// they upload (a store's exported extents) — whatever probe.Scanner reads.
// The files are imported into a cosmos store and the DSA pipeline's
// 10-minute jobs run once over the 10-minute windows the data covers, its
// hourly and daily jobs once over those windows rounded out to whole hours;
// the report tables they fill are printed, with one DC's hourly heatmap on
// request. Without a topology only the fleet-wide intra-/inter-DC summary
// can be computed.
//
// Usage:
//
//	pingmesh-dsa [-topology spec.json [-heatmap DC1 [-svg out.svg]] [-diagnose]] file...
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/scope"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pingmesh-dsa:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pingmesh-dsa", flag.ContinueOnError)
	var (
		topoPath  = fs.String("topology", "", "topology spec JSON; required for everything but the fleet-wide summary")
		maxDrop   = fs.Float64("alert-drop", 1e-3, "drop rate alert threshold")
		maxP99    = fs.Duration("alert-p99", 5*time.Millisecond, "P99 latency alert threshold")
		debugAddr = fs.String("debug-addr", "", "serve pprof on this address while the analysis runs (empty = off)")
		diagnose  = fs.Bool("diagnose", false, "rank root-cause suspect switches from the raw records (requires -topology)")
		heatmap   = fs.String("heatmap", "", "also print this DC's hourly pod-pair heatmap (requires -topology)")
		svgPath   = fs.String("svg", "", "with -heatmap, write the heatmap as SVG here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: pingmesh-dsa [-topology spec.json] file...")
	}
	if (*diagnose || *heatmap != "") && *topoPath == "" {
		return fmt.Errorf("-diagnose and -heatmap require -topology")
	}
	if *svgPath != "" && *heatmap == "" {
		return fmt.Errorf("-svg requires -heatmap")
	}
	if *debugAddr != "" {
		dbg, err := debugsrv.Serve(*debugAddr, debugsrv.Config{})
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s\n", dbg.Addr())
	}
	var top *topology.Topology
	if *topoPath != "" {
		var err error
		if top, err = loadTopology(*topoPath); err != nil {
			return err
		}
	}

	// Import: one stream per file, so no file's last line runs into the
	// next file's first.
	store, err := cosmos.NewStore(1, cosmos.Config{})
	if err != nil {
		return err
	}
	var votes *diagnosis.Collector
	if *diagnose {
		// No path resolver offline: the collector attributes votes over
		// topology candidate stage sets.
		votes = diagnosis.NewCollector(diagnosis.CollectorConfig{Top: top})
	}
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := store.Append(fmt.Sprintf("pingmesh/file%d", i), data); err != nil {
			return err
		}
		if votes != nil {
			raw, _ := probe.DecodeBatch(data) // corrupt rows are counted by the jobs below
			votes.ObserveBatch(raw)
		}
	}

	// The span the data covers, on the 10-minute grid: a job keyed by window.
	// A sketch lies whole in the window of its first probe.
	source := scope.Source{Store: store, StreamPrefix: "pingmesh"}
	windows, err := scope.Run(scope.Job{Name: "windows", Source: source, TalliesOnly: true,
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
			return binary.BigEndian.AppendUint64(dst, uint64(probe.WindowIndex(r.Start, probe.Window))), true
		}})
	if err != nil {
		return err
	}
	if windows.ParseErrors > 0 {
		fmt.Fprintf(os.Stderr, "skipped %d corrupt rows\n", windows.ParseErrors)
	}
	if windows.Records == 0 {
		return fmt.Errorf("no probe records in %d files", fs.NArg())
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for key := range windows.Groups {
		win := int64(binary.BigEndian.Uint64([]byte(key)))
		lo, hi = min(lo, win), max(hi, win)
	}
	from := time.Unix(0, lo*int64(probe.Window)).UTC()
	to := time.Unix(0, (hi+1)*int64(probe.Window)).UTC()
	fmt.Fprintf(stdout, "loaded %d probes in %d windows, %s to %s\n",
		windows.Records, len(windows.Groups), from.Format(time.RFC3339), to.Format(time.RFC3339))

	th := analysis.DefaultThresholds()
	th.MaxDropRate, th.MaxP99 = *maxDrop, *maxP99
	if top == nil {
		return summarize(stdout, source, th, to)
	}

	if votes != nil {
		r := votes.Snapshot(16)
		fmt.Fprintf(stdout, "diagnosis: observed=%d failures=%d; %d sketched probes not observed (votes need raw records)\n",
			r.Observed, r.Failures, windows.Records-r.Observed)
		if len(r.Candidates) == 0 {
			fmt.Fprintln(stdout, "diagnosis: no failures, empty ranking")
		}
		for i, c := range r.Candidates {
			fmt.Fprintf(stdout, "%2d. %-20s score=%.4f votes=%.1f coverage=%.1f\n",
				i+1, top.Switch(c.Switch).Name, c.Score, c.Votes, c.Coverage)
		}
	}

	// Every cycle is on the grid of its cadence. The clock stands at the
	// first hour, so none of the hours the daily jobs keep has aged out
	// before their one cycle, however many the data spans.
	hoursFrom, hoursTo := from.Truncate(time.Hour), to.Add(time.Hour-1).Truncate(time.Hour)
	var escalations []diagnosis.PodsetRef
	pipe, err := dsa.New(dsa.Config{
		Store:       store,
		Top:         top,
		Clock:       simclock.NewSim(hoursFrom),
		Thresholds:  th,
		OnDetection: func(det diagnosis.BlackholeDetection) { escalations = det.Escalations },
	})
	if err != nil {
		return err
	}
	if err := pipe.RunTenMinute(from, to); err != nil {
		return err
	}
	if err := pipe.RunHourly(hoursFrom, hoursTo); err != nil {
		return err
	}
	if err := pipe.RunDaily(hoursFrom, hoursTo); err != nil {
		return err
	}
	if err := printTables(stdout, pipe.DB()); err != nil {
		return err
	}
	for _, e := range escalations {
		fmt.Fprintf(stdout, "escalation: DC %s podset %d (fault above the ToR layer)\n", top.DCs[e.DC].Name, e.Podset)
	}
	if *heatmap == "" {
		return nil
	}
	h, ok := pipe.Heatmaps()[*heatmap]
	if !ok {
		return fmt.Errorf("no DC %q in the topology", *heatmap)
	}
	printHeatmap(stdout, *heatmap, h)
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(h.Heatmap.RenderSVG()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *svgPath)
	}
	return nil
}

// summarize prints what can be said of the data without a topology. The
// headline SLA metric is the intra-DC SYN RTT; inter-DC WAN latency is tracked
// apart so that a 25ms WAN round trip does not trip the 5ms intra-DC threshold
// (§3.5's separate inter-DC pipeline).
func summarize(w io.Writer, source scope.Source, th analysis.Thresholds, at time.Time) error {
	for _, class := range []struct {
		name  string
		where func(*probe.Record) bool
		alert bool
	}{
		{"intra-dc", func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 }, true},
		{"inter-dc", func(r *probe.Record) bool { return r.Class == probe.InterDC }, false},
	} {
		res, err := scope.Run(scope.Job{Name: class.name, Source: source, Where: class.where})
		if err != nil {
			return err
		}
		st := res.Get("")
		if st.Total() == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: n=%d p50=%v p99=%v p99.9=%v drop_rate=%.2e failure_rate=%.2e\n", class.name,
			st.Total(), st.Percentile(0.5), st.Percentile(0.99), st.Percentile(0.999), st.DropRate(), st.FailureRate())
		if class.alert {
			if a := analysis.Check(class.name, st, th, at); a != nil {
				fmt.Fprintln(w, "ALERT:", a)
			}
		}
	}
	return nil
}

// reports is the pipeline's report tables in print order, each with its
// columns in the order shown.
var reports = []struct {
	table string
	cols  []string
}{
	{dsa.TableSLA, []string{"scope", "window_start", "window_end", "probes", "p50", "p99", "drop_rate", "failure_rate"}},
	{dsa.TableAlerts, []string{"scope", "at", "reason"}},
	{dsa.TableDropRates, []string{"dc", "class", "probes", "drop_rate"}},
	{dsa.TableBlackholes, []string{"tor", "score"}},
	{dsa.TablePatterns, []string{"dc", "pattern", "podset"}},
}

// printTables prints every report table, rows in the order of their text.
func printTables(w io.Writer, db *reportdb.DB) error {
	for _, rep := range reports {
		rows, err := db.Query(rep.table)
		if err != nil {
			return err
		}
		lines := make([]string, len(rows))
		for i, row := range rows {
			var sb strings.Builder
			for _, col := range rep.cols {
				if at, ok := row[col].(time.Time); ok {
					row[col] = at.UTC().Format(time.RFC3339)
				}
				fmt.Fprintf(&sb, " %s=%v", col, row[col])
			}
			lines[i] = sb.String()[1:]
		}
		sort.Strings(lines)
		fmt.Fprintf(w, "\n-- %s --\n", rep.table)
		if len(lines) == 0 {
			fmt.Fprintln(w, "(none)")
		}
		for _, line := range lines {
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

// printHeatmap prints one DC's hourly heatmap (§6.3) and its pattern.
func printHeatmap(w io.Writer, dc string, h dsa.HeatmapResult) {
	fmt.Fprintf(w, "\n-- heatmap %s --\n%s", dc, h.Heatmap.RenderASCII())
	fmt.Fprintf(w, "pattern: %s", h.Classification.Pattern)
	if h.Classification.Podset >= 0 {
		fmt.Fprintf(w, " (podset %d)", h.Classification.Podset)
	}
	fmt.Fprintln(w)
}

func loadTopology(path string) (*topology.Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open topology: %w", err)
	}
	defer f.Close()
	spec, err := topology.ReadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("parse topology: %w", err)
	}
	return topology.Build(spec)
}
