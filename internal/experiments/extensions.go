package experiments

import (
	"fmt"
	"sync"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/core"
	"pingmesh/internal/fleet"
	"pingmesh/internal/metrics"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// QoSResult is the §6.2 QoS monitoring extension: after DSCP-based QoS was
// introduced in the data center, the Pingmesh Generator was extended to
// emit both high- and low-priority probes; low-priority packets see deeper
// queues under load.
type QoSResult struct {
	High metrics.Summary
	Low  metrics.Summary
}

// QoSMonitoring runs a fleet whose pinglists carry both QoS classes (the
// controller-side extension; the agent only needed a second port) and
// compares the two latency distributions under load.
func QoSMonitoring(opts Options) (*QoSResult, error) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}})
	if err != nil {
		return nil, err
	}
	prof := netsim.DC1Profile()
	prof.Load = func(time.Time) float64 { return 3 } // sustained load: queues matter
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{prof}})
	if err != nil {
		return nil, err
	}
	gen := core.DefaultGeneratorConfig()
	gen.WithLowQoS = true
	gen.LowQoSPort = 8766
	start := time.Unix(1751328000, 0).UTC()
	lists, err := core.Generate(top, gen, "v1", start)
	if err != nil {
		return nil, err
	}
	// Load is constant, so the tails resolve with time: 150 minutes.
	var mu sync.Mutex
	high, low := analysis.NewLatencyStats(), analysis.NewLatencyStats()
	runner := &fleet.Runner{Net: net, Lists: lists, Seed: opts.seed()}
	if err := runner.Run(start, start.Add(150*time.Minute), func(_ topology.ServerID, recs []probe.Record) {
		mu.Lock()
		defer mu.Unlock()
		for i := range recs {
			if recs[i].QoS == probe.QoSLow {
				low.Add(&recs[i])
			} else {
				high.Add(&recs[i])
			}
		}
	}); err != nil {
		return nil, err
	}
	return &QoSResult{High: high.Summary(), Low: low.Summary()}, nil
}

// Report renders the QoS comparison.
func (r *QoSResult) Report() Report {
	return Report{
		ID:    "§6.2 QoS monitoring",
		Title: "High- vs low-priority probe latency under load",
		Rows: []Row{
			{"high-QoS P90", "baseline", fmtDur(r.High.P90)},
			{"low-QoS P90", "deeper queues", fmtDur(r.Low.P90)},
			{"high-QoS P99", "baseline", fmtDur(r.High.P99)},
			{"low-QoS P99", "deeper queues", fmtDur(r.Low.P99)},
			{"probes", "both classes always-on", fmt.Sprintf("high=%d low=%d", r.High.Count, r.Low.Count)},
		},
		Notes: []string{
			"the extension needed only a generator change plus one extra agent port (§6.2)",
		},
	}
}
