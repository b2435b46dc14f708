package diagnosis

// This file is the ToR black-hole detector of §5.1. A switch with packet
// black-holes deterministically drops packets matching particular header
// patterns while looking perfectly healthy in its own counters, so
// detection must come from Pingmesh data: if many servers under one ToR
// show the black-hole symptom (they persistently cannot reach particular
// peers that everyone else reaches fine), the ToR is scored as a
// candidate; candidates above a threshold are reloaded through the repair
// service, capped at a daily budget. If every ToR in a podset shows the
// symptom, the problem is above the ToRs (Leaf/Spine) and is escalated to
// engineers instead.

import (
	"cmp"
	"net/netip"
	"slices"

	"pingmesh/internal/analysis"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/topology"
)

// The detector's thresholds (§5.1).
const (
	// blackholeScoreThreshold is the fraction of a ToR's servers that must
	// show the symptom to make the ToR a candidate.
	blackholeScoreThreshold = 0.5
	// MinPairProbes is the minimum number of probes a server pair needs
	// before it can be judged.
	MinPairProbes = 4
	// pairFailureRate is the failure rate at or above which a pair shows
	// the black-hole symptom: type-1 black-holes fail 100%, type-2 fail the
	// fraction of port space the corrupt entry covers.
	pairFailureRate = 0.5
	// victimPairFraction is the fraction of a server's judged pairs that
	// must fail before the server counts as a black-hole victim. This is
	// what localizes the fault: servers under a black-holed ToR see a
	// large fraction of their pairs die, while a remote server typically
	// has only one pair crossing the bad ToR.
	victimPairFraction = 0.25
)

// PodsetRef identifies a podset escalated to engineers.
type PodsetRef struct {
	DC, Podset int
}

// BlackholeDetection is the black-hole detector's output.
type BlackholeDetection struct {
	// Candidates are ToRs to reload, highest score first (SortByScore).
	Candidates []Candidate
	// Escalations are podsets where every ToR shows the symptom: the
	// fault is at the Leaf or Spine layer, beyond what a ToR reload fixes.
	Escalations []PodsetRef
	// Scores holds the black-hole score of every ToR (victims/servers).
	Scores map[topology.SwitchID]float64
}

// DetectBlackholes runs the algorithm over server-pair grouped stats (the
// output of a SCOPE job keyed by Keyer.AppendServerPair).
func DetectBlackholes(top *topology.Topology, pairs map[string]*analysis.LatencyStats) BlackholeDetection {
	// Server liveness: a server that answered at least one probe from
	// anyone is alive; pairs towards dead servers are not black-hole
	// evidence (the host may simply be down).
	aliveDst := map[netip.Addr]bool{}
	aliveSrc := map[netip.Addr]bool{}
	for key, st := range pairs {
		src, dst, ok := analysis.SplitServerPair(key)
		if !ok || st.Success() == 0 {
			continue
		}
		aliveSrc[src] = true
		aliveDst[dst] = true
	}

	// Per server: how many of its pairs were judged, and how many showed
	// the symptom (persistent failure between two alive endpoints).
	judged := map[topology.ServerID]int{}
	symptomatic := map[topology.ServerID]int{}
	for key, st := range pairs {
		if st.Total() < MinPairProbes {
			continue
		}
		src, dst, ok := analysis.SplitServerPair(key)
		if !ok {
			continue
		}
		if !aliveSrc[src] && !aliveDst[src] {
			continue // source itself dead: not network evidence
		}
		if !aliveDst[dst] && !aliveSrc[dst] {
			continue // destination dead: could be a host failure
		}
		srcID, okS := top.ServerByAddr(src)
		dstID, okD := top.ServerByAddr(dst)
		sym := st.FailureRate() >= pairFailureRate
		if okS {
			judged[srcID]++
			if sym {
				symptomatic[srcID]++
			}
		}
		if okD {
			judged[dstID]++
			if sym {
				symptomatic[dstID]++
			}
		}
	}
	// A server is a victim when a noticeable fraction of its pairs fail.
	victims := map[topology.ServerID]bool{}
	for id, n := range judged {
		if n > 0 && float64(symptomatic[id])/float64(n) >= victimPairFraction {
			victims[id] = true
		}
	}

	det := BlackholeDetection{Scores: map[topology.SwitchID]float64{}}
	type psKey struct{ dc, ps int }
	torsOf := map[psKey][]topology.SwitchID{}
	candidateSet := map[topology.SwitchID]bool{}

	// Shared 007-style scorer: each pod's victim count is vote mass and
	// its server count the traversal coverage, so a ToR's normalized score
	// stays victims/servers — the §5.1 formula — on the VoteTable that
	// ranks §5.2's vote evidence.
	vt := NewVoteTable(top.NumSwitches())
	for di := range top.DCs {
		for psi := range top.DCs[di].Podsets {
			ps := &top.DCs[di].Podsets[psi]
			for qi := range ps.Pods {
				pod := &ps.Pods[qi]
				nVictims := 0
				for _, sid := range pod.Servers {
					if victims[sid] {
						nVictims++
					}
				}
				vt.AddVotes(pod.ToR, float64(nVictims), float64(len(pod.Servers)))
				score := vt.Score(pod.ToR)
				det.Scores[pod.ToR] = score
				torsOf[psKey{di, psi}] = append(torsOf[psKey{di, psi}], pod.ToR)
				if score >= blackholeScoreThreshold {
					candidateSet[pod.ToR] = true
				}
			}
		}
	}

	// Podset rule: if only part of a podset's ToRs show the symptom,
	// reload them; if all do, escalate the podset (§5.1).
	for key, tors := range torsOf {
		flagged := 0
		for _, tor := range tors {
			if candidateSet[tor] {
				flagged++
			}
		}
		if flagged == 0 {
			continue
		}
		if flagged == len(tors) && len(tors) > 1 {
			det.Escalations = append(det.Escalations, PodsetRef{DC: key.dc, Podset: key.ps})
			continue
		}
		for _, tor := range tors {
			if candidateSet[tor] {
				det.Candidates = append(det.Candidates, Candidate{Switch: tor, Score: det.Scores[tor], Votes: vt.Votes(tor)})
			}
		}
	}
	// §5.1 candidate order: highest score first, device identity breaking
	// ties — the shared scorer's SortByScore policy.
	SortByScore(det.Candidates)
	slices.SortFunc(det.Escalations, func(a, b PodsetRef) int {
		return cmp.Or(cmp.Compare(a.DC, b.DC), cmp.Compare(a.Podset, b.Podset))
	})
	return det
}

// RepairBlackholes reloads candidate ToRs through the repair service until
// the daily budget runs out, and reports how many reloads it made.
// Remaining candidates will be re-detected on the next run (§5.1 limits
// reloads to 20 switches per day).
func RepairBlackholes(det BlackholeDetection, top *topology.Topology, rs *autopilot.RepairService) int {
	reloaded := 0
	for _, cand := range det.Candidates {
		err := rs.Execute(autopilot.RepairAction{
			Kind:   autopilot.RepairReload,
			Device: top.Switch(cand.Switch).Name,
			Reason: "pingmesh black-hole detection",
		})
		if err != nil {
			break // budget exhausted or executor failure: stop for today
		}
		reloaded++
	}
	return reloaded
}
