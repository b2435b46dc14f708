package experiments

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/core"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

// Ablations quantify the design choices DESIGN.md calls out: what breaks
// when a Pingmesh design decision is reverted.

// AblationECMPResult compares fresh-source-port probing (every probe
// re-rolls its ECMP path) against fixed-port probing for detecting a
// silently lossy Spine. The paper's agent opens a new connection per probe
// precisely to explore the multipath fabric (§3.4.1).
type AblationECMPResult struct {
	// FreshPortDetection is the fraction of server pairs whose measured
	// drop rate exceeds the alert threshold when every probe uses a new
	// source port.
	FreshPortDetection float64
	// FixedPortDetection is the same with one fixed port per pair: pairs
	// hashed away from the lossy spine are blind; pairs hashed onto it
	// scream. Coverage collapses to the fraction of paths through the
	// spine.
	FixedPortDetection float64
	// FreshPortMeanRate and FixedPortMeanRate are the mean per-pair drop
	// estimates.
	FreshPortMeanRate float64
	FixedPortMeanRate float64
}

// AblationECMP measures both strategies against one lossy Spine.
func AblationECMP(opts Options) (*AblationECMPResult, error) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 4, Spines: 8},
	}})
	if err != nil {
		return nil, err
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC3Profile()}})
	if err != nil {
		return nil, err
	}
	spine := top.DCs[0].Spines[2]
	net.SetRandomDrop(spine, 0.02, true)

	// Cross-podset pairs only: their paths cross the Spine tier, so every
	// pair is genuinely exposed to the lossy switch.
	pairs := samplePairs(top, 0, pairCrossPodset, 64, opts.seed())
	perPair := opts.probes(256_000) / len(pairs) / 2
	if perPair < 500 {
		perPair = 500
	}
	rng := rand.New(rand.NewPCG(opts.seed()+77, 3))
	const alertAt = 1e-3

	measure := func(freshPorts bool) (detection, meanRate float64) {
		detected := 0
		var sum float64
		for pi, p := range pairs {
			fixed := uint16(34000 + pi)
			retx, ok := 0, 0
			pr := net.PairProber(p[0], p[1])
			spec := netsim.ProbeSpec{Src: p[0], Dst: p[1], DstPort: 8765}
			for i := 0; i < perPair; i++ {
				port := fixed
				if freshPorts {
					port = uint16(32768 + rng.IntN(28000))
				}
				spec.SrcPort = port
				res := pr.Probe(&spec, rng)
				if res.Err == "" {
					ok++
					if res.Attempts > 1 {
						retx++
					}
				}
			}
			rate := 0.0
			if ok > 0 {
				rate = float64(retx) / float64(ok)
			}
			sum += rate
			if rate > alertAt {
				detected++
			}
		}
		return float64(detected) / float64(len(pairs)), sum / float64(len(pairs))
	}

	res := &AblationECMPResult{}
	res.FreshPortDetection, res.FreshPortMeanRate = measure(true)
	res.FixedPortDetection, res.FixedPortMeanRate = measure(false)
	return res, nil
}

// Report renders the ECMP ablation.
func (r *AblationECMPResult) Report() Report {
	return Report{
		ID:    "Ablation: ECMP port variation",
		Title: "Fresh source port per probe vs fixed port (lossy Spine, 1/8 paths)",
		Rows: []Row{
			{"fresh-port pairs alerting", "all affected pairs see the loss", fmt.Sprintf("%.0f%%", r.FreshPortDetection*100)},
			{"fixed-port pairs alerting", "only pairs hashed onto the spine", fmt.Sprintf("%.0f%%", r.FixedPortDetection*100)},
			{"fresh-port mean rate", "diluted across paths", fmt.Sprintf("%.1e", r.FreshPortMeanRate)},
			{"fixed-port mean rate", "bimodal: 0 or full", fmt.Sprintf("%.1e", r.FixedPortMeanRate)},
		},
		Notes: []string{"new connection per probe (§3.4.1) is what gives every pair visibility into every path"},
	}
}

// AblationDropHeuristicResult compares the paper's drop-rate heuristic
// against two tempting alternatives (§4.2).
type AblationDropHeuristicResult struct {
	// TrueInjected is the per-traversal drop probability injected.
	TrueInjected float64
	// PaperHeuristic is (3s+9s)/successful.
	PaperHeuristic float64
	// AllProbesDenominator divides by all probes including failures; with
	// a dead destination in the mix it conflates host death with drops.
	AllProbesDenominator float64
	// NineCountsTwo counts a 9s RTT as two drops; correlated retransmit
	// loss then double-counts.
	NineCountsTwo float64
	// FailureRateAllProbes is failures/total — what you would report if
	// you treated failed connects as drops; the dead host dominates it.
	FailureRateAllProbes float64
}

// AblationDropHeuristic measures the three estimators on a fabric with a
// known injected loss plus one powered-down podset (dead hosts must not
// pollute a *packet drop* metric).
func AblationDropHeuristic(opts Options) (*AblationDropHeuristicResult, error) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}})
	if err != nil {
		return nil, err
	}
	prof := netsim.DC3Profile()
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{prof}})
	if err != nil {
		return nil, err
	}
	// Elevated, known loss on every spine so the injected rate is
	// path-independent; plus one dead podset.
	const injected = 5e-4
	for _, s := range top.DCs[0].Spines {
		net.SetRandomDrop(s, injected, true)
	}
	net.SetPodsetDown(0, 2, true)

	// Probe from podset 0 to podsets 1 (alive) and 2 (dead), as a fleet
	// with mixed destinations would.
	var pairs [][2]topology.ServerID
	src := top.DCs[0].Podsets[0].Servers()
	alive := top.DCs[0].Podsets[1].Servers()
	dead := top.DCs[0].Podsets[2].Servers()
	for i, s := range src {
		pairs = append(pairs, [2]topology.ServerID{s, alive[i%len(alive)]})
		if i%4 == 0 { // a fraction of traffic goes at the dead podset
			pairs = append(pairs, [2]topology.ServerID{s, dead[i%len(dead)]})
		}
	}
	n := opts.probes(800_000)
	rng := rand.New(rand.NewPCG(opts.seed()+99, 5))
	probers := make([]*netsim.PairProber, len(pairs))
	specs := make([]netsim.ProbeSpec, len(pairs))
	for i, p := range pairs {
		probers[i] = net.PairProber(p[0], p[1])
		specs[i] = netsim.ProbeSpec{Src: p[0], Dst: p[1], DstPort: 8765}
	}
	var total, success, failed, rtt3, rtt9 float64
	for i := 0; i < n; i++ {
		pi := i % len(pairs)
		specs[pi].SrcPort = uint16(32768 + rng.IntN(28000))
		res := probers[pi].Probe(&specs[pi], rng)
		total++
		if res.Err != "" {
			failed++
			continue
		}
		success++
		switch analysis.DropSignature(res.RTT) {
		case 1:
			rtt3++
		case 2:
			rtt9++
		}
	}
	return &AblationDropHeuristicResult{
		TrueInjected:         injected,
		PaperHeuristic:       (rtt3 + rtt9) / success,
		AllProbesDenominator: (rtt3 + rtt9) / total,
		NineCountsTwo:        (rtt3 + 2*rtt9) / success,
		FailureRateAllProbes: failed / total,
	}, nil
}

// Report renders the drop-heuristic ablation.
func (r *AblationDropHeuristicResult) Report() Report {
	return Report{
		ID:    "Ablation: drop-rate heuristic",
		Title: "Estimator variants vs injected per-traversal loss",
		Rows: []Row{
			{"injected (per traversal)", "ground truth", fmt.Sprintf("%.1e", r.TrueInjected)},
			{"paper heuristic", "(3s+9s)/successful", fmt.Sprintf("%.1e", r.PaperHeuristic)},
			{"9s counted as 2 drops", "over-counts correlated loss", fmt.Sprintf("%.1e", r.NineCountsTwo)},
			{"failures treated as drops", "dead hosts dominate", fmt.Sprintf("%.1e", r.FailureRateAllProbes)},
		},
		Notes: []string{
			"the round trip crosses lossy fabric twice plus retries, so the per-probe signature rate",
			"sits a small factor above the per-traversal loss; dead hosts must stay out of the numerator",
		},
	}
}

// AblationSamplingResult quantifies §6.1's argument for all-server
// participation: black-hole detection coverage as a function of how many
// servers per pod join Pingmesh.
type AblationSamplingResult struct {
	// DetectionByFraction maps participation (servers probing per pod) to
	// the fraction of seeded black-holed ToRs detected.
	Rows []SamplingRow
}

// SamplingRow is one participation level's outcome.
type SamplingRow struct {
	ServersPerPod int
	Detected      int
	Seeded        int
}

// AblationSampling seeds black-holed ToRs and runs detection with only a
// subset of each pod's servers participating.
func AblationSampling(opts Options) (*AblationSamplingResult, error) {
	res := &AblationSamplingResult{}
	for _, participate := range []int{4, 2, 1} {
		top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 4, PodsPerPodset: 5, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 8},
		}})
		if err != nil {
			return nil, err
		}
		net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC3Profile()}})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(opts.seed()+uint64(participate), 7))
		seeded := map[topology.SwitchID]bool{}
		tors := top.ToRs(0)
		for len(seeded) < 6 {
			tor := tors[rng.IntN(len(tors))]
			if !seeded[tor] {
				seeded[tor] = true
				net.AddBlackhole(tor, netsim.Blackhole{MatchFraction: 0.35, IncludePorts: true})
			}
		}
		// Rank-sampled participation: the first participate servers of each pod.
		pairs := probeRelationPairs(net, 6, opts.seed()+uint64(participate)*13, runtime.NumCPU(), func(id topology.ServerID) bool {
			return top.Server(id).Rank < participate
		})
		det := diagnosis.DetectBlackholes(top, pairs)
		detected := 0
		for _, c := range det.Candidates {
			if seeded[c.Switch] {
				detected++
			}
		}
		res.Rows = append(res.Rows, SamplingRow{ServersPerPod: participate, Detected: detected, Seeded: len(seeded)})
	}
	return res, nil
}

// Report renders the sampling ablation.
func (r *AblationSamplingResult) Report() Report {
	rep := Report{
		ID:    "Ablation: all-servers vs sampled participation",
		Title: "Black-hole detection coverage vs probing participation (§6.1)",
		Notes: []string{"fewer participating servers -> fewer victim observations per ToR -> missed black-holes"},
	}
	for _, row := range r.Rows {
		rep.Rows = append(rep.Rows, Row{
			fmt.Sprintf("%d/4 servers per pod", row.ServersPerPod),
			"full coverage needs all",
			fmt.Sprintf("detected %d of %d", row.Detected, row.Seeded),
		})
	}
	return rep
}

// AblationGraphDesignResult compares the per-server probe count of the
// paper's three-level complete-graph design against a flat server-level
// complete graph (§3.3.1: infeasible at scale).
type AblationGraphDesignResult struct {
	Servers        int
	ThreeLevelMax  int
	FlatGraphPeers int
	// ProbesPerSecFleet3L and ProbesPerSecFleetFlat are fleet-wide probe
	// rates at the default intervals.
	ProbesPerSecFleet3L   float64
	ProbesPerSecFleetFlat float64
}

// AblationGraphDesign computes both designs' fan-out on a mid-size DC.
func AblationGraphDesign(opts Options) (*AblationGraphDesignResult, error) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 10, PodsPerPodset: 20, ServersPerPod: 40, LeavesPerPodset: 4, Spines: 32},
	}})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultGeneratorConfig()
	sample := []topology.ServerID{0}
	lists, err := core.GenerateSubset(top, cfg, "v", time.Unix(1751328000, 0).UTC(), sample)
	if err != nil {
		return nil, err
	}
	perServer := len(lists[0].Peers)

	n := top.NumServers()
	intraPodPeers := 39
	intraDCPeers := perServer - intraPodPeers
	fleet3L := float64(n) * (float64(intraPodPeers)/cfg.IntraPodInterval.Seconds() +
		float64(intraDCPeers)/cfg.IntraDCInterval.Seconds())
	fleetFlat := float64(n) * float64(n-1) / cfg.IntraDCInterval.Seconds()

	return &AblationGraphDesignResult{
		Servers:               n,
		ThreeLevelMax:         perServer,
		FlatGraphPeers:        n - 1,
		ProbesPerSecFleet3L:   fleet3L,
		ProbesPerSecFleetFlat: fleetFlat,
	}, nil
}

// Report renders the graph-design ablation.
func (r *AblationGraphDesignResult) Report() Report {
	return Report{
		ID:    "Ablation: 3-level complete graphs vs flat server graph",
		Title: fmt.Sprintf("Per-server fan-out on a %d-server DC", r.Servers),
		Rows: []Row{
			{"3-level design peers", "bounded by #ToRs (~200 here)", fmt.Sprintf("%d", r.ThreeLevelMax)},
			{"flat graph peers", "n-1: infeasible at scale", fmt.Sprintf("%d", r.FlatGraphPeers)},
			{"fleet probes/s (3-level)", "affordable", fmt.Sprintf("%.0f", r.ProbesPerSecFleet3L)},
			{"fleet probes/s (flat)", "explodes quadratically", fmt.Sprintf("%.0f", r.ProbesPerSecFleetFlat)},
		},
		Notes: []string{"§3.3.1: a server-level complete graph is neither feasible nor necessary"},
	}
}
