package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"pingmesh"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

// The §5 localisation episode: two simultaneous faults of different
// loudness, injected into pingmesh-sim's default 48-server fleet.
const (
	diagSpineDrop  = 0.05 // silent random drop rate on the first spine
	diagBlackhole  = 0.6  // header-space fraction the ToR black-hole matches
	diagRankingTop = 8    // ranking entries kept per run
)

// DiagnosisRun is one seed's episode.
type DiagnosisRun struct {
	Seed               uint64
	Observed, Failures uint64
	// Ranking names the vote ranking's switches, best first.
	Ranking []string
	// Chains holds the /diagnose evidence chain of a cross-podset pair (it
	// must pin the spine) and of a same-podset pair under the black-holed
	// ToR (it must pin the ToR, not the also-faulty spine).
	Chains []*diagnosis.Chain
	// TopTwoHit: both injected switches are the ranking's top two.
	// ChainsHit: each chain pins its injected switch.
	TopTwoHit, ChainsHit bool
}

// DiagnosisResult is the §5 root-cause localisation accuracy table.
type DiagnosisResult struct {
	Minutes    int
	Spine, ToR string // the injected switches
	Runs       []DiagnosisRun
}

// Diagnosis injects a 5 % silent random drop on a spine and a 0.6-fraction
// TCAM black-hole on a ToR, probes for the given simulated minutes, and asks
// the diagnosis subsystem to find both twice over: the fleet-wide vote
// ranking's top two, and the per-pair assertion chains' TTL sweeps. One run
// per seed.
func Diagnosis(minutes int, seeds ...uint64) (*DiagnosisResult, error) {
	res := &DiagnosisResult{Minutes: minutes}
	for _, seed := range seeds {
		tb, err := pingmesh.NewSimTestbed(topology.Spec{DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
		}}, pingmesh.SimOptions{Seed: seed})
		if err != nil {
			return nil, err
		}
		// The spine drop hits cross-podset traffic fleet-wide, but only the
		// flows ECMP sends through it; the address-pattern (type 1)
		// black-hole on pod 2's ToR drops every matched pair.
		dc := &tb.Top.DCs[0]
		spine, victim := dc.Spines[0], &dc.Podsets[0].Pods[2]
		tb.Net.SetRandomDrop(spine, diagSpineDrop, true)
		tb.Net.AddBlackhole(victim.ToR, netsim.Blackhole{MatchFraction: diagBlackhole})
		res.Spine, res.ToR = tb.Top.Switch(spine).Name, tb.Top.Switch(victim.ToR).Name

		if err := tb.RunWindow(time.Duration(minutes) * time.Minute); err != nil {
			return nil, err
		}
		ranking := tb.Diag.Snapshot(diagRankingTop)
		run := DiagnosisRun{Seed: seed, Observed: ranking.Observed, Failures: ranking.Failures}
		for _, c := range ranking.Candidates {
			run.Ranking = append(run.Ranking, tb.Top.Switch(c.Switch).Name)
		}
		run.TopTwoHit = slices.Contains(run.top2(), res.Spine) && slices.Contains(run.top2(), res.ToR)

		// The spine's pair crosses podsets, so its path crosses the spine
		// layer. The ToR's pairs stay inside podset 0, so the chain must
		// blame the ToR, not the also-faulty spine; the black-hole matches
		// only a fraction of them, so the first pinned one is kept.
		engine := tb.NewDiagnosisEngine()
		spineChain := engine.Diagnose(dc.Podsets[0].Pods[0].Servers[0], dc.Podsets[1].Pods[0].Servers[0], nil)
		var torChain *diagnosis.Chain
	pairs:
		for _, src := range dc.Podsets[0].Pods[0].Servers {
			for _, dst := range victim.Servers {
				if torChain = engine.Diagnose(src, dst, nil); torChain.PinnedHop == res.ToR {
					break pairs
				}
			}
		}
		run.Chains = []*diagnosis.Chain{spineChain, torChain}
		run.ChainsHit = spineChain.PinnedHop == res.Spine && torChain.PinnedHop == res.ToR
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func (r *DiagnosisRun) top2() []string { return r.Ranking[:min(2, len(r.Ranking))] }

// Report renders one row per seed.
func (r *DiagnosisResult) Report() Report {
	rep := Report{
		ID:    "§5 (in-text)",
		Title: "Root-cause localization accuracy (multi-fault)",
	}
	for _, run := range r.Runs {
		rep.Rows = append(rep.Rows, Row{
			fmt.Sprintf("seed %d", run.Seed),
			"both faults located",
			fmt.Sprintf("probes=%d failures=%d top-2=%s %s; chains pin spine=%s tor=%s %s",
				run.Observed, run.Failures, strings.Join(run.top2(), ","), mark(run.TopTwoHit),
				run.Chains[0].PinnedHop, run.Chains[1].PinnedHop, mark(run.ChainsHit)),
		})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("injected: %s silent random drop %.3f, %s black-hole fraction %.2f; %d simulated minutes per seed",
			r.Spine, diagSpineDrop, r.ToR, diagBlackhole, r.Minutes))
	return rep
}

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
