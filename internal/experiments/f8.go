package experiments

import (
	"time"

	"pingmesh"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
	"pingmesh/internal/viz"
)

// Figure8Scenario is one of the four canonical situations of Figure 8.
type Figure8Scenario struct {
	Name     string
	Expected viz.Pattern
	Got      viz.Classification
	ASCII    string
	SVG      string
}

// Figure8Result holds all four rendered heatmaps and their classification.
type Figure8Result struct {
	Scenarios []Figure8Scenario
}

// Figure8 reproduces the four visualization patterns: it injects each
// situation, runs the probing fleet for a simulated half hour, and reads the
// heatmap and pattern the hourly job publishes for the hour (with the
// figure's per-cell floor of 3 probes).
func Figure8(opts Options) (*Figure8Result, error) {
	cases := []struct {
		name     string
		expected viz.Pattern
		inject   func(n *netsim.Network)
	}{
		{"normal", viz.PatternNormal, func(n *netsim.Network) {}},
		{"podset-down", viz.PatternPodsetDown, func(n *netsim.Network) {
			n.SetPodsetDown(0, 1, true) // whole podset loses power
		}},
		{"podset-failure", viz.PatternPodsetFailure, func(n *netsim.Network) {
			// Broadcast storm inside the podset's L2 domain.
			n.SetPodsetDegraded(0, 1, netsim.Degradation{ExtraLatencyMean: 12 * time.Millisecond})
		}},
		{"spine-failure", viz.PatternSpineFailure, func(n *netsim.Network) {
			n.SetTierDegraded(0, topology.TierSpine, netsim.Degradation{ExtraLatencyMean: 10 * time.Millisecond})
		}},
	}

	res := &Figure8Result{}
	for _, c := range cases {
		tb, err := pingmesh.NewSimTestbed(topology.Spec{DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 3, LeavesPerPodset: 3, Spines: 6},
		}}, pingmesh.SimOptions{Profiles: []netsim.Profile{netsim.DC2Profile()}, Seed: opts.seed(), HeatmapMinProbes: 3})
		if err != nil {
			return nil, err
		}
		c.inject(tb.Net)
		if err := probeCycle(tb, 30*time.Minute, time.Hour, tb.Pipeline.RunHourly); err != nil {
			return nil, err
		}
		h := tb.Pipeline.Heatmaps()["DC1"]
		res.Scenarios = append(res.Scenarios, Figure8Scenario{
			Name:     c.name,
			Expected: c.expected,
			Got:      h.Classification,
			ASCII:    h.Heatmap.RenderASCII(),
			SVG:      h.Heatmap.RenderSVG(),
		})
	}
	return res, nil
}

// Report renders the Figure 8 comparison.
func (r *Figure8Result) Report() Report {
	rep := Report{
		ID:    "Figure 8",
		Title: "Network latency patterns through visualization",
	}
	for _, s := range r.Scenarios {
		rep.Rows = append(rep.Rows, Row{
			s.Name,
			s.Expected.String(),
			s.Got.Pattern.String(),
		})
	}
	rep.Notes = append(rep.Notes,
		"green=<4ms yellow=4-5ms red=>5ms white=no data, per the paper's thresholds")
	return rep
}
