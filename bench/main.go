// Command bench is the repository's one pipeline benchmark. It drives the
// real packages through their public functions —
//
//	fleet/netsim → agent encode → cosmos append/seal → shard ledger + scope
//	fold → dsa cycles → portal publish → HTTP reads
//
// and beside it the controller and telemetry planes — once with spans off
// for the end-to-end numbers and once with its own span recorder on for the
// per-layer table. See README.md for the workloads and the metric catalogue.
//
// A run repeats fixed-size epochs (fresh set-up, then a fixed number of
// windows or rounds) until -seconds have passed and reports each metric's
// median over the epochs, so the set-up is timed several times per run and
// one noisy epoch does not move the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric. bound is the share of the baseline
// median by which an end-to-end metric may worsen; per-layer metrics have
// none. An end-to-end timing is reported at reference speed: a duration is
// multiplied and a rate divided by the machine speed calibrate measured
// during the epoch. Exact counts and per-layer metrics are reported as
// measured.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
	kind       int // how machine speed enters: duration, rate or exact
}

const (
	exact = iota
	duration
	rate
)

// endToEnd lists what a user of the system sees. An item is a probe on the
// data-plane workloads and an agent-round (one pinglist fetch plus one PMT1
// report) on fleet_churn, so that every workload reports every metric.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25, duration},
	{"items_per_s", "1/s", true, 0.25, rate},
	{"pipeline_items_per_s", "1/s", true, 0.25, rate},
	{"cpu_s_per_mitem", "s", false, 0.25, duration},
	{"bytes_per_item", "B", false, 0.02, exact},
	{"heap_mb_peak", "MB", false, 0.05, exact},
}

// perLayer lists the traced run's metrics, <package>.<metric>. A layer that
// does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{name: "fleet.gen_ns_per_probe", unit: "ns"},
	{name: "fleet.gen_cpu_ns_per_probe", unit: "ns"},
	{name: "fleet.gen_alloc_b_per_probe", unit: "B"},
	{name: "agent.sketch_ns_per_probe", unit: "ns"},
	{name: "agent.raw_share", unit: "ratio"},
	{name: "agent.sketches_per_window", unit: "count"},
	{name: "probe.csv_encode_ns_per_record", unit: "ns"},
	{name: "probe.pmb1_encode_ns_per_entry", unit: "ns"},
	{name: "probe.scan_ns_per_entry", unit: "ns"},
	{name: "probe.scan_mb_per_s", unit: "MB/s", higher: true},
	{name: "probe.parse_errors", unit: "count"},
	{name: "cosmos.append_ns_per_batch", unit: "ns"},
	{name: "cosmos.append_mb_per_s", unit: "MB/s", higher: true},
	{name: "cosmos.read_extent_us", unit: "us"},
	{name: "cosmos.extents_sealed", unit: "count"},
	{name: "cosmos.stored_bytes", unit: "B"},
	{name: "cosmos.append_errors", unit: "count"},
	{name: "shard.extents_folded", unit: "count", higher: true},
	{name: "shard.extents_stolen", unit: "count"},
	{name: "shard.skew", unit: "ratio"},
	{name: "scope.fold_ns_per_entry", unit: "ns"},
	{name: "dsa.fold_ms_p50", unit: "ms"},
	{name: "dsa.cycle10_ms_p50", unit: "ms"},
	{name: "dsa.cycle10_growth", unit: "ratio"},
	{name: "dsa.hourly_ms", unit: "ms"},
	{name: "dsa.daily_ms", unit: "ms"},
	{name: "dsa.sla_rows", unit: "count", higher: true},
	{name: "dsa.alerts_fired", unit: "count"},
	{name: "dsa.rows_mismatched", unit: "count"},
	{name: "portal.publish_lag_ms_p50", unit: "ms"},
	{name: "portal.refresh_ms_p50", unit: "ms"},
	{name: "portal.bodies", unit: "count"},
	{name: "portal.body_bytes", unit: "B"},
	{name: "portal.reads_per_s", unit: "1/s", higher: true},
	{name: "portal.read_us_p50", unit: "us"},
	{name: "portal.read_us_p99", unit: "us"},
	{name: "portal.read_304_share", unit: "ratio", higher: true},
	{name: "portal.read_errors", unit: "count"},
	{name: "portal.triage_us_p50", unit: "us"},
	{name: "portal.diagnose_us_p50", unit: "us"},
	{name: "diagnosis.observe_ns_per_probe", unit: "ns"},
	{name: "diagnosis.rank_ms", unit: "ms"},
	{name: "diagnosis.true_in_top2", unit: "count", higher: true},
	{name: "blackhole.tor_correct", unit: "count", higher: true},
	{name: "viz.patterns_correct", unit: "count", higher: true},
	{name: "controller.publish_ms", unit: "ms"},
	{name: "controller.update_ms", unit: "ms"},
	{name: "controller.converge_ms", unit: "ms"},
	{name: "controller.client_fetch_us_p50", unit: "us"},
	{name: "controller.fetch_full_ns", unit: "ns"},
	{name: "controller.fetch_304_ns", unit: "ns"},
	{name: "controller.fetch_delta_ns", unit: "ns"},
	{name: "controller.delta_build_ms_total", unit: "ms"},
	{name: "controller.delta_share", unit: "ratio", higher: true},
	{name: "controller.delta_fallbacks", unit: "count"},
	{name: "controller.bytes_per_agent_update", unit: "B"},
	{name: "pinglist.client_patches_verified", unit: "count", higher: true},
	{name: "pinglist.apply_mismatches", unit: "count"},
	{name: "telemetry.build_ns_per_report", unit: "ns"},
	{name: "telemetry.ingest_ns_per_report", unit: "ns"},
	{name: "telemetry.bytes_per_report", unit: "B"},
	{name: "telemetry.dups_dropped", unit: "count", higher: true},
	{name: "telemetry.rollup_ms", unit: "ms"},
	{name: "telemetry.series_keys", unit: "count"},
	{name: "telemetry.rollup_mismatches", unit: "count"},
	{name: "runtime.alloc_mb_per_mitem", unit: "MB"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.unaccounted_pct", unit: "%"},
	{name: "trace.idle_pct", unit: "%"},
	{name: "machine.speed_pct", unit: "%", higher: true},
}

var workloadNames = []string{"steady_raw", "steady_sketch", "incident", "fleet_churn"}

// envInfo states where the numbers were taken. Everything runs in one
// process; the only sockets are loopback ones, for the portal reads and the
// sampled controller clients.
type envInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
	Loopback   bool   `json:"loopback"`
}

func readEnv() envInfo {
	e := envInfo{CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: numWorkers(), Go: runtime.Version(), GitSHA: "unknown", Loopback: true}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	return e
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is what -out receives: the result with its provenance.
type document struct {
	Env         envInfo              `json:"env"`
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Scale       string               `json:"scale"`
	Trace       bool                 `json:"trace"`
	Epochs      int                  `json:"epochs"`
	Result      result               `json:"result"`
	Failures    []string             `json:"failures,omitempty"`
	Samples     map[string][]float64 `json:"samples"`                // per-epoch values behind each median
	Speed       []float64            `json:"speed"`                  // per-epoch machine speed the timings were brought to reference by
	LayerShares map[string]float64   `json:"layer_shares,omitempty"` // traced: layer → share of loop wall
}

func runEpoch(workload, scale string, seed uint64, rec *recorder) (*epochResult, error) {
	if workload == "fleet_churn" {
		return runChurnEpoch(churnShapeFor(scale), seed, rec)
	}
	return runDataPlaneEpoch(dataPlaneShapes(scale)[workload], seed, rec)
}

// spanCapacity bounds a traced epoch's spans: a few per batch and per read.
const spanCapacity = 1 << 18

// runWorkload repeats epochs for the given time and folds them into one
// document. An untraced run reports the end-to-end metrics. A traced run
// follows every untraced epoch with a traced one over the same inputs,
// reports the per-layer metrics of the traced ones, and the loop-wall
// difference between the two kinds as the tracing overhead.
func runWorkload(workload, scale string, seed uint64, seconds float64, trace bool) (*document, error) {
	doc := &document{Env: readEnv(), Workload: workload, Seed: seed, Seconds: seconds, Scale: scale,
		Trace: trace, Samples: map[string][]float64{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	// epoch runs one epoch, counts its operations and, when it is of the
	// kind this run reports, keeps its metrics as one sample each.
	epoch := func(sub uint64, rec *recorder) (*epochResult, error) {
		ep, err := runEpoch(workload, scale, sub, rec)
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", workload, doc.Epochs, err)
		}
		doc.Epochs++
		doc.Result.Attempted += ep.attempted
		doc.Result.Failed += ep.failed
		doc.Failures = append(doc.Failures, ep.failures...)
		if (rec != nil) != trace {
			return ep, nil
		}
		doc.Speed = append(doc.Speed, ep.speed)
		for _, d := range defs {
			v := ep.metrics[d.name]
			switch d.kind {
			case duration:
				v *= ep.speed
			case rate:
				v /= ep.speed
			}
			doc.Samples[d.name] = append(doc.Samples[d.name], v)
		}
		return ep, nil
	}

	var (
		budget       = time.Duration(seconds * float64(time.Second))
		start        = time.Now()
		plain, spans []float64 // loop walls of the untraced and the traced epochs
		shares       = map[string][]float64{}
		rec          *recorder
	)
	for step := 0; ; step++ {
		t0 := time.Now()
		sub := splitmix(seed, step)
		ep, err := epoch(sub, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ep.loopWall.Seconds())
		if trace {
			rec = newRecorder(workload, spanCapacity)
			if ep, err = epoch(sub, rec); err != nil {
				return nil, err
			}
			spans = append(spans, ep.loopWall.Seconds())
			for layer, share := range ep.layers {
				shares[layer] = append(shares[layer], share)
			}
		}
		// Stop when the next step would end further past the budget than
		// stopping now falls short of it.
		if time.Since(start)+time.Since(t0)/2 >= budget {
			break
		}
	}
	if trace {
		doc.Samples["trace.overhead_pct"] = []float64{100 * (median(spans)/median(plain) - 1)}
		doc.LayerShares = map[string]float64{}
		for layer, vs := range shares {
			doc.LayerShares[layer] = median(vs)
		}
		if err := os.MkdirAll("out", 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeFile(filepath.Join("out", "trace-"+workload+".json")); err != nil {
			return nil, err
		}
	}
	doc.Result.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v := median(doc.Samples[d.name])
		if math.IsNaN(v) || math.IsInf(v, 0) || (!trace && v <= 0) {
			doc.Result.Failed++
			doc.Failures = append(doc.Failures, fmt.Sprintf("metric %s = %v", d.name, v))
			v = 0
		}
		doc.Result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	doc.Result.Correct = doc.Result.Failed == 0
	return doc, nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "steady_raw, steady_sketch, incident, fleet_churn or all")
		seed     = flag.Uint64("seed", 1, "input seed; a claim must also hold on seed 2, which no change is tuned on")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		scale    = flag.String("scale", "full", "full, or smoke for a seconds-long check of the wiring")
		out      = flag.String("out", "", "also write the results, with env, to this file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	var docs []*document
	for _, name := range names {
		doc, err := runWorkload(name, *scale, *seed, *seconds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		for _, f := range doc.Failures {
			fmt.Fprintln(os.Stderr, "FAILED:", f)
		}
		docs = append(docs, doc)
		line, err := json.Marshal(doc.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if *out != "" {
		data, err := json.Marshal(docs)
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
