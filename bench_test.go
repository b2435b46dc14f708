package pingmesh_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment and reports its headline numbers as benchmark
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Paper-vs-measured tables are printed by
// cmd/experiments and recorded in EXPERIMENTS.md. Probe budgets here are
// chosen so the full bench run finishes in a few minutes; cmd/experiments
// uses larger defaults for sharper tails.

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/experiments"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// BenchmarkFigure3AgentOverhead measures one agent probing ~2500 peers:
// Figure 3's CPU and memory footprint.
func BenchmarkFigure3AgentOverhead(b *testing.B) {
	var last *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(experiments.Options{Probes: 20000, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.PeakHeapMB, "heap_MB")
	b.ReportMetric(last.CPUPercent, "cpu_pct")
	b.ReportMetric(float64(last.Peers), "peers")
}

// BenchmarkFigure4aInterPodCDF regenerates the inter-pod latency
// distributions of DC1 vs DC2 (Figure 4(a)).
func BenchmarkFigure4aInterPodCDF(b *testing.B) {
	r := runFigure4(b)
	b.ReportMetric(us(r.DC1Inter.P50), "dc1_p50_us")
	b.ReportMetric(us(r.DC2Inter.P50), "dc2_p50_us")
	b.ReportMetric(us(r.DC1Inter.P90), "dc1_p90_us")
	b.ReportMetric(us(r.DC2Inter.P90), "dc2_p90_us")
}

// BenchmarkFigure4bHighPercentile regenerates the high-percentile tail
// (Figure 4(b)): DC1's P99.9/P99.99 far above DC2's.
func BenchmarkFigure4bHighPercentile(b *testing.B) {
	r := runFigure4(b)
	b.ReportMetric(us(r.DC1Inter.P999)/1000, "dc1_p999_ms")
	b.ReportMetric(us(r.DC2Inter.P999)/1000, "dc2_p999_ms")
	b.ReportMetric(us(r.DC1Inter.P9999)/1000, "dc1_p9999_ms")
	b.ReportMetric(us(r.DC2Inter.P9999)/1000, "dc2_p9999_ms")
}

// BenchmarkFigure4cIntraVsInterPod regenerates the intra- vs inter-pod
// comparison (Figure 4(c)).
func BenchmarkFigure4cIntraVsInterPod(b *testing.B) {
	r := runFigure4(b)
	b.ReportMetric(us(r.DC1Intra.P50), "intra_p50_us")
	b.ReportMetric(us(r.DC1Inter.P50), "inter_p50_us")
	b.ReportMetric(us(r.DC1Inter.P50-r.DC1Intra.P50), "gap_p50_us")
}

// BenchmarkFigure4dPayload regenerates the with/without-payload comparison
// (Figure 4(d)).
func BenchmarkFigure4dPayload(b *testing.B) {
	r := runFigure4(b)
	b.ReportMetric(us(r.DC1SYN.P50), "syn_p50_us")
	b.ReportMetric(us(r.DC1Payload.P50), "payload_p50_us")
	b.ReportMetric(us(r.DC1SYN.P99), "syn_p99_us")
	b.ReportMetric(us(r.DC1Payload.P99), "payload_p99_us")
}

func runFigure4(b *testing.B) *experiments.Figure4Result {
	b.Helper()
	var last *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(experiments.Options{Probes: 500_000, Seed: 101})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

// BenchmarkTable1DropRates regenerates the intra-/inter-pod drop rates of
// the five DCs (Table 1), reported in units of 1e-5 like the paper's
// rows.
func BenchmarkTable1DropRates(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(experiments.Options{Probes: 1_000_000, Seed: 102})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, dc := range last.DCs {
		b.ReportMetric(dc.IntraPod*1e5, dc.Name+"_intra_1e-5")
		b.ReportMetric(dc.InterPod*1e5, dc.Name+"_inter_1e-5")
	}
}

// BenchmarkFigure5ServiceSLA regenerates the one-week service SLA series
// (Figure 5): steady P99 with periodic data-sync bumps, flat drop rate.
func BenchmarkFigure5ServiceSLA(b *testing.B) {
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(experiments.Options{Probes: 1_000_000, Seed: 103})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(us(last.BaselineP99()), "baseline_p99_us")
	b.ReportMetric(us(last.SyncP99()), "sync_p99_us")
	b.ReportMetric(last.MeanDropRate()*1e5, "drop_1e-5")
}

// BenchmarkFigure6BlackholeDetection regenerates the detection-decay curve
// (Figure 6): black-holed ToR count drains under the 20-reloads/day cap.
func BenchmarkFigure6BlackholeDetection(b *testing.B) {
	var last *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(experiments.Options{Seed: 104}, experiments.Figure6Config{Days: 15})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Days[0].Detected), "day0_detected")
	b.ReportMetric(float64(last.Days[len(last.Days)-1].Detected), "final_detected")
	b.ReportMetric(float64(last.Days[0].Reloaded), "day0_reloaded")
}

// BenchmarkFigure7SilentSpineDrops regenerates the Spine silent-drop
// incident (Figure 7): drop-rate spike, traceroute localization, recovery
// on isolation.
func BenchmarkFigure7SilentSpineDrops(b *testing.B) {
	var last *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(experiments.Options{Probes: 900_000, Seed: 105})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Phase("baseline")*1e5, "baseline_1e-5")
	b.ReportMetric(last.Phase("incident")*1e5, "incident_1e-5")
	b.ReportMetric(last.Phase("isolated")*1e5, "isolated_1e-5")
	b.ReportMetric(boolMetric(last.Correct), "localized_ok")
}

// BenchmarkFigure8Patterns regenerates the four visualization patterns
// (Figure 8) and reports how many classified correctly.
func BenchmarkFigure8Patterns(b *testing.B) {
	var last *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(experiments.Options{Seed: 106})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	correct := 0
	for _, s := range last.Scenarios {
		if s.Got.Pattern == s.Expected {
			correct++
		}
	}
	b.ReportMetric(float64(correct), "patterns_correct_of_4")
}

// BenchmarkFanOut regenerates the §3.3.1 in-text fan-out claim at scale.
func BenchmarkFanOut(b *testing.B) {
	var last *experiments.FanOutResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.FanOut(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.MinPeers), "min_peers")
	b.ReportMetric(float64(last.MaxPeers), "max_peers")
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// BenchmarkSimProbe measures the simulator's per-probe cost — the
// throughput floor of every experiment above.
func BenchmarkSimProbe(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 5, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
	}})
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		b.Fatal(err)
	}
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	rng := rand.New(rand.NewPCG(1, 2))
	start := time.Unix(1751328000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Probe(netsim.ProbeSpec{
			Src: src, Dst: dst,
			SrcPort: uint16(32768 + i%28000), DstPort: 8765,
			Start: start,
		}, rng)
	}
}

// BenchmarkPinglistGeneration measures the controller's full-fleet
// generation cost for a mid-size DC.
func BenchmarkPinglistGeneration(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 5, PodsPerPodset: 20, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 16},
	}})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultGeneratorConfig()
	now := time.Unix(1751328000, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Generate(top, cfg, "bench", now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(top.NumServers()), "servers")
}

// BenchmarkAblationECMP quantifies why the agent uses a fresh source port
// per probe: detection coverage of a lossy Spine with and without ECMP
// path variation.
func BenchmarkAblationECMP(b *testing.B) {
	var last *experiments.AblationECMPResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationECMP(experiments.Options{Probes: 256_000, Seed: 107})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.FreshPortDetection*100, "fresh_port_detect_pct")
	b.ReportMetric(last.FixedPortDetection*100, "fixed_port_detect_pct")
}

// BenchmarkAblationDropHeuristic compares the paper's drop-rate estimator
// against naive alternatives with a dead podset in the mix.
func BenchmarkAblationDropHeuristic(b *testing.B) {
	var last *experiments.AblationDropHeuristicResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDropHeuristic(experiments.Options{Probes: 600_000, Seed: 108})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.PaperHeuristic*1e5, "paper_1e-5")
	b.ReportMetric(last.NineCountsTwo*1e5, "ninecounts2_1e-5")
	b.ReportMetric(last.FailureRateAllProbes*1e5, "failures_1e-5")
}

// BenchmarkAblationSampling measures black-hole detection coverage as
// participation shrinks from all servers to one per pod (§6.1).
func BenchmarkAblationSampling(b *testing.B) {
	var last *experiments.AblationSamplingResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSampling(experiments.Options{Seed: 109})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, row := range last.Rows {
		b.ReportMetric(float64(row.Detected), fmt.Sprintf("detected_%dof4", row.ServersPerPod))
	}
}
