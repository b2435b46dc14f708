package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pingmesh"
	"pingmesh/internal/analysis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/metrics"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/topology"
)

// Figure4Result holds the latency distributions of Figure 4: inter-pod
// latency for DC1 and DC2 (a, b), intra- vs inter-pod for DC1 (c), and
// inter-pod with payload for DC1 (d).
type Figure4Result struct {
	DC1Inter   metrics.Summary
	DC2Inter   metrics.Summary
	DC1Intra   metrics.Summary
	DC1Payload metrics.Summary // payload echo RTT of the same probes
	DC1SYN     metrics.Summary // SYN RTT measured alongside the payload run

	DC1InterCDF []metrics.CDFPoint
	DC2InterCDF []metrics.CDFPoint
}

// Figure4 measures the four latency distributions. DC1 models the
// throughput-loaded storage/MapReduce DC, DC2 the latency-sensitive Search
// DC (§4.1). (a)–(c) come through the pipeline (figure4Dists); (d) needs
// payload probes, which the testbed's pinglists do not carry, so it samples
// the same fabric directly.
func Figure4(opts Options) (*Figure4Result, error) {
	tb, err := figure4Testbed(opts.seed())
	if err != nil {
		return nil, err
	}
	n := opts.probes(1_500_000)
	dc1, dc2, intra, err := figure4Dists(tb, n)
	if err != nil {
		return nil, err
	}
	// (d): inter-pod with ~1KB payload, DC1. The same probes yield both
	// the SYN RTT and the payload echo RTT, exactly like the production
	// agent's payload pings.
	pairs := samplePairs(tb.Top, 0, pairInterPod, 512, opts.seed())
	pay := measureDist(tb.Net, pairs, n/2, 1000, tb.Clock.Now(), opts.seed()+4, runtime.NumCPU())
	return &Figure4Result{
		DC1Inter: dc1.Summary(), DC1InterCDF: dc1.CDF(),
		DC2Inter: dc2.Summary(), DC2InterCDF: dc2.CDF(),
		DC1Intra: intra.Summary(),
		DC1SYN:   pay.Summary(), DC1Payload: pay.PayloadSummary(),
	}, nil
}

// figure4Testbed is Figure 4's deployment: a DC1 and a DC2 of 120 servers.
func figure4Testbed(seed uint64) (*pingmesh.SimTestbed, error) {
	return pingmesh.NewSimTestbed(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 5, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
		{Name: "DC2", Podsets: 3, PodsPerPodset: 5, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
	}}, pingmesh.SimOptions{Profiles: []netsim.Profile{netsim.DC1Profile(), netsim.DC2Profile()}, Seed: seed})
}

// figure4Dists probes whole windows until DC1's and DC2's inter-pod and
// DC1's intra-pod SYN probes each number at least n, and reads them back
// with one ad-hoc job over the store keyed by class and source DC: the SLA
// rows carry only P50 and P99, the figure needs the tail and the CDF.
func figure4Dists(tb *pingmesh.SimTestbed, n int) (dc1Inter, dc2Inter, dc1Intra *analysis.LatencyStats, err error) {
	from := tb.Clock.Now()
	w := spansFor(n, probesPer(tb, probe.Window, 0, probe.IntraDC), probesPer(tb, probe.Window, 1, probe.IntraDC), probesPer(tb, probe.Window, 0, probe.IntraPod))
	if err := tb.RunWindow(time.Duration(w) * probe.Window); err != nil {
		return nil, nil, nil, err
	}
	keyer := &analysis.Keyer{Top: tb.Top}
	res, err := scope.Run(scope.Job{
		Name:   "figure4",
		Source: scope.Source{Store: tb.Store, StreamPrefix: "pingmesh"},
		From:   from, To: tb.Clock.Now(),
		Where: func(r *probe.Record) bool { return r.PayloadLen == 0 },
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
			return keyer.AppendSrcDC(append(append(dst, r.Class.String()...), ' '), r)
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return res.Get("intra-dc DC1"), res.Get("intra-dc DC2"), res.Get("intra-pod DC1"), nil
}

// ReportA compares Figure 4(a)'s qualitative claim.
func (r *Figure4Result) ReportA() Report {
	return Report{
		ID:    "Figure 4(a)",
		Title: "Inter-pod latency distribution, DC1 vs DC2",
		Rows: []Row{
			{"DC1 P50", "~269us", fmtDur(r.DC1Inter.P50)},
			{"DC2 P50", "~270us (similar)", fmtDur(r.DC2Inter.P50)},
			{"DC1 P90", "<= ~1ms", fmtDur(r.DC1Inter.P90)},
			{"DC2 P90", "<= ~1ms", fmtDur(r.DC2Inter.P90)},
		},
		Notes: []string{
			"paper: below P90 the loaded DC1 is NOT slower than DC2 despite heavy load",
		},
	}
}

// ReportB compares Figure 4(b)'s tail numbers.
func (r *Figure4Result) ReportB() Report {
	return Report{
		ID:    "Figure 4(b)",
		Title: "Inter-pod latency at high percentiles",
		Rows: []Row{
			{"DC1 P99", "1.34ms", fmtDur(r.DC1Inter.P99)},
			{"DC2 P99", "~1ms", fmtDur(r.DC2Inter.P99)},
			{"DC1 P99.9", "23.35ms", fmtDur(r.DC1Inter.P999)},
			{"DC2 P99.9", "11.07ms", fmtDur(r.DC2Inter.P999)},
			{"DC1 P99.99", "1397.63ms", fmtDur(r.DC1Inter.P9999)},
			{"DC2 P99.99", "105.84ms", fmtDur(r.DC2Inter.P9999)},
		},
		Notes: []string{
			"shape check: DC1 tail >> DC2 tail; sub-ms four-9s latency unattainable",
			"DC1 " + fmtSummary(r.DC1Inter),
			"DC2 " + fmtSummary(r.DC2Inter),
		},
	}
}

// ReportC compares Figure 4(c): intra- vs inter-pod in DC1.
func (r *Figure4Result) ReportC() Report {
	gap50 := r.DC1Inter.P50 - r.DC1Intra.P50
	gap99 := r.DC1Inter.P99 - r.DC1Intra.P99
	return Report{
		ID:    "Figure 4(c)",
		Title: "Intra-pod vs inter-pod latency, DC1",
		Rows: []Row{
			{"intra-pod P50", "216us", fmtDur(r.DC1Intra.P50)},
			{"inter-pod P50", "268us", fmtDur(r.DC1Inter.P50)},
			{"P50 gap", "52us", fmtDur(gap50)},
			{"intra-pod P99", "1.26ms", fmtDur(r.DC1Intra.P99)},
			{"inter-pod P99", "1.34ms", fmtDur(r.DC1Inter.P99)},
			{"P99 gap", "80us", fmtDur(gap99)},
		},
		Notes: []string{"queuing adds only tens of µs: the fabric has headroom (§4.1)"},
	}
}

// ReportD compares Figure 4(d): latency with and without payload.
func (r *Figure4Result) ReportD() Report {
	return Report{
		ID:    "Figure 4(d)",
		Title: "Inter-pod latency with vs without payload, DC1",
		Rows: []Row{
			{"SYN P50", "268us", fmtDur(r.DC1SYN.P50)},
			{"payload P50", "326us", fmtDur(r.DC1Payload.P50)},
			{"SYN P99", "1.34ms", fmtDur(r.DC1SYN.P99)},
			{"payload P99", "2.43ms", fmtDur(r.DC1Payload.P99)},
		},
		Notes: []string{"payload adds serialization + user-space echo overhead"},
	}
}

// Table1Result holds the per-DC drop rates of Table 1.
type Table1Result struct {
	DCs []Table1DC
}

// Table1DC is one Table 1 row.
type Table1DC struct {
	Name     string
	IntraPod float64
	InterPod float64
}

// Table1 reads the intra-pod and inter-pod packet drop rates of five DC
// profiles (the SYN-retransmit heuristic, §4.2) off the daily job's
// drop-rate rows. The fleet probes whole windows until every DC's inter-pod
// and intra-pod probes each reach the budget; a budget longer than a day
// spans several daily cycles, and the table is their probe-weighted mean.
func Table1(opts Options) (*Table1Result, error) {
	profiles := netsim.DefaultProfiles()
	var specs []topology.DCSpec
	for _, p := range profiles {
		specs = append(specs, topology.DCSpec{
			Name: p.Name, Podsets: 2, PodsPerPodset: 4, ServersPerPod: 8,
			LeavesPerPodset: 4, Spines: 8,
		})
	}
	tb, err := pingmesh.NewSimTestbed(topology.Spec{DCs: specs}, pingmesh.SimOptions{Profiles: profiles, Seed: opts.seed()})
	if err != nil {
		return nil, err
	}
	var perWindow []int
	for dc := range profiles {
		perWindow = append(perWindow, probesPer(tb, probe.Window, dc, probe.IntraPod), probesPer(tb, probe.Window, dc, probe.IntraDC))
	}
	const windowsPerDay = int(24 * time.Hour / probe.Window)
	for left := spansFor(opts.probes(2_000_000), perWindow...); left > 0; left -= windowsPerDay {
		if err := probeCycle(tb, time.Duration(min(left, windowsPerDay))*probe.Window, 24*time.Hour, tb.Pipeline.RunDaily); err != nil {
			return nil, err
		}
	}
	rows, err := tb.DB().Query(dsa.TableDropRates)
	if err != nil {
		return nil, err
	}
	probes, drops := map[string]float64{}, map[string]float64{}
	for _, r := range rows {
		k, n := r["dc"].(string)+" "+r["class"].(string), float64(r["probes"].(int64))
		probes[k] += n
		drops[k] += n * r["drop_rate"].(float64)
	}
	rate := func(k string) float64 { return drops[k] / probes[k] }
	res := &Table1Result{}
	for _, p := range profiles {
		res.DCs = append(res.DCs, Table1DC{
			Name:     p.Name,
			IntraPod: rate(p.Name + " intra-pod"),
			InterPod: rate(p.Name + " intra-dc"),
		})
	}
	return res, nil
}

// paper values for Table 1, for the report.
var table1Paper = map[string][2]string{
	"DC1": {"1.31e-05", "7.55e-05"},
	"DC2": {"2.10e-05", "7.63e-05"},
	"DC3": {"9.58e-06", "4.00e-05"},
	"DC4": {"1.52e-05", "5.32e-05"},
	"DC5": {"9.82e-06", "1.54e-05"},
}

// Report renders the Table 1 comparison.
func (r *Table1Result) Report() Report {
	rep := Report{
		ID:    "Table 1",
		Title: "Intra-pod and inter-pod packet drop rates",
		Notes: []string{
			"shape check: all rates within 1e-5..1e-4; inter-pod several-fold above intra-pod",
		},
	}
	for _, dc := range r.DCs {
		paper := table1Paper[dc.Name]
		rep.Rows = append(rep.Rows,
			Row{dc.Name + " intra-pod", paper[0], fmt.Sprintf("%.2e", dc.IntraPod)},
			Row{dc.Name + " inter-pod", paper[1], fmt.Sprintf("%.2e", dc.InterPod)},
		)
	}
	return rep
}
