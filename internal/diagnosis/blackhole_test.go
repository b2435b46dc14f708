package diagnosis

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// probePairs simulates the Pingmesh probing relation (intra-pod complete
// graph + intra-DC rank pairing) with k probes per pair and aggregates
// per-pair stats, like the DSA's server-pair SCOPE job would.
func probePairs(n *netsim.Network, k int, seed uint64) map[string]*analysis.LatencyStats {
	top := n.Topology()
	rng := rand.New(rand.NewPCG(seed, seed^99))
	out := map[string]*analysis.LatencyStats{}
	addPair := func(src, dst topology.ServerID) {
		key := top.Server(src).Addr.String() + "|" + top.Server(dst).Addr.String()
		st, ok := out[key]
		if !ok {
			st = analysis.NewLatencyStats()
			out[key] = st
		}
		for i := 0; i < k; i++ {
			res := n.Probe(netsim.ProbeSpec{
				Src: src, Dst: dst,
				SrcPort: uint16(33000 + rng.IntN(20000)), DstPort: 8765,
			}, rng)
			rec := probe.Record{
				Src: top.Server(src).Addr, Dst: top.Server(dst).Addr,
				RTT: res.RTT, Err: res.Err,
			}
			st.Add(&rec)
		}
	}
	for _, s := range top.Servers() {
		// Intra-pod complete graph.
		for _, peer := range top.PodOf(s.ID).Servers {
			if peer != s.ID {
				addPair(s.ID, peer)
			}
		}
		// Intra-DC rank pairing.
		for psi := range top.DCs[s.DC].Podsets {
			for qi := range top.DCs[s.DC].Podsets[psi].Pods {
				if psi == s.Podset && qi == s.Pod {
					continue
				}
				pod := &top.DCs[s.DC].Podsets[psi].Pods[qi]
				if s.Rank < len(pod.Servers) {
					addPair(s.ID, pod.Servers[s.Rank])
				}
			}
		}
	}
	return out
}

func TestDetectHealthyFleet(t *testing.T) {
	n := testNet(t)
	det := DetectBlackholes(n.Topology(), probePairs(n, 5, 1))
	if len(det.Candidates) != 0 || len(det.Escalations) != 0 {
		t.Fatalf("healthy fleet: candidates=%v escalations=%v", det.Candidates, det.Escalations)
	}
}

func TestDetectSingleBlackholedToR(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	bad := top.ToRs(0)[2] // podset 0, pod 2
	// A type-2 black-hole: port-sensitive matching makes pair failure
	// rates concentrate near the match fraction, independent of address
	// hash luck in this small topology (type-1 address-based detection is
	// covered by the dsa package's larger-fleet test).
	n.AddBlackhole(bad, netsim.Blackhole{MatchFraction: 0.35, IncludePorts: true})

	det := DetectBlackholes(top, probePairs(n, 5, 2))
	if len(det.Candidates) == 0 {
		t.Fatalf("black-holed ToR not detected; scores=%v", det.Scores)
	}
	if det.Candidates[0].Switch != bad {
		t.Fatalf("top candidate = %v (score %v), want %v (score %v)",
			det.Candidates[0].Switch, det.Candidates[0].Score, bad, det.Scores[bad])
	}
	if len(det.Candidates) != 1 {
		t.Fatalf("extra candidates flagged: %v", det.Candidates)
	}
	if len(det.Escalations) != 0 {
		t.Fatalf("unexpected escalations: %v", det.Escalations)
	}
}

func TestDetectType2BlackholePortBased(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	bad := top.ToRs(0)[0]
	n.AddBlackhole(bad, netsim.Blackhole{MatchFraction: 0.5, IncludePorts: true})

	det := DetectBlackholes(top, probePairs(n, 8, 3))
	if len(det.Candidates) == 0 || det.Candidates[0].Switch != bad {
		t.Fatalf("type-2 black-hole not detected: %v", det.Candidates)
	}
}

func TestDetectLeafLayerEscalatesPodset(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	// Black-hole both leaves of podset 1: every ToR in the podset shows
	// the symptom; the fix is not a ToR reload.
	for _, leaf := range top.DCs[0].Podsets[1].Leaves {
		n.AddBlackhole(leaf, netsim.Blackhole{MatchFraction: 0.9})
	}
	det := DetectBlackholes(top, probePairs(n, 5, 4))
	found := false
	for _, e := range det.Escalations {
		if e.DC == 0 && e.Podset == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("podset not escalated: escalations=%v candidates=%v scores=%v",
			det.Escalations, det.Candidates, det.Scores)
	}
	for _, c := range det.Candidates {
		if top.Switch(c.Switch).Podset == 1 {
			t.Fatalf("podset-1 ToR %v flagged for reload despite escalation", c.Switch)
		}
	}
}

func TestDetectIgnoresDeadPodset(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	n.SetPodsetDown(0, 1, true)
	det := DetectBlackholes(top, probePairs(n, 5, 5))
	if len(det.Candidates) != 0 || len(det.Escalations) != 0 {
		t.Fatalf("dead podset produced detections: %v %v", det.Candidates, det.Escalations)
	}
}

func TestDetectMinPairProbes(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	n.AddBlackhole(top.ToRs(0)[0], netsim.Blackhole{MatchFraction: 0.9})
	// Only 2 probes per pair with a floor of 4: nothing is judged.
	det := DetectBlackholes(top, probePairs(n, 2, 6))
	if len(det.Candidates) != 0 {
		t.Fatalf("under-sampled pairs produced candidates: %v", det.Candidates)
	}
}

func TestRepairReloadsAndRespectsBudget(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	bad1, bad2 := top.ToRs(0)[0], top.ToRs(0)[4] // different podsets
	// Port-sensitive (type-2) black-holes: every probe re-rolls the match,
	// so pair failure rates concentrate around the match fraction instead
	// of depending on per-address hash luck.
	n.AddBlackhole(bad1, netsim.Blackhole{MatchFraction: 0.35, IncludePorts: true})
	n.AddBlackhole(bad2, netsim.Blackhole{MatchFraction: 0.35, IncludePorts: true})
	det := DetectBlackholes(top, probePairs(n, 5, 7))
	// Both injected ToRs must rank at the top; borderline neighbors may
	// trail them (extra reloads are harmless, just budget-consuming).
	if len(det.Candidates) < 2 {
		t.Fatalf("candidates = %v, want both bad ToRs", det.Candidates)
	}
	top2 := map[topology.SwitchID]bool{det.Candidates[0].Switch: true, det.Candidates[1].Switch: true}
	if !top2[bad1] || !top2[bad2] {
		t.Fatalf("top candidates = %v, want %v and %v", det.Candidates[:2], bad1, bad2)
	}

	clock := simclock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	rs := autopilot.NewRepairService(clock, func(a autopilot.RepairAction) error {
		for _, sw := range top.Switches() {
			if sw.Name == a.Device {
				n.ReloadSwitch(sw.ID)
				return nil
			}
		}
		return fmt.Errorf("unknown device %s", a.Device)
	})
	// Spend all but one of the day's reloads: only one is left today.
	for i := 0; i < autopilot.RepairsPerDay-1; i++ {
		rs.Execute(autopilot.RepairAction{Kind: autopilot.RepairReload, Device: "elsewhere"})
	}
	if got := RepairBlackholes(det, top, rs); got != 1 {
		t.Fatalf("Repair reloaded %d, want 1 (budget)", got)
	}
	// One of the two is fixed.
	fixed := 0
	if !n.SwitchFaulty(bad1) {
		fixed++
	}
	if !n.SwitchFaulty(bad2) {
		fixed++
	}
	if fixed != 1 {
		t.Fatalf("fixed %d switches, want exactly 1", fixed)
	}

	// Next day: the survivor is re-detected and repaired (Figure 6's decay).
	clock.Advance(24 * time.Hour)
	det2 := DetectBlackholes(top, probePairs(n, 5, 8))
	if len(det2.Candidates) < 1 {
		t.Fatalf("day-2 candidates = %v", det2.Candidates)
	}
	survivor := bad1
	if !n.SwitchFaulty(bad1) {
		survivor = bad2
	}
	if det2.Candidates[0].Switch != survivor {
		t.Fatalf("day-2 top candidate = %v, want surviving bad ToR %v", det2.Candidates[0].Switch, survivor)
	}
	if got := RepairBlackholes(det2, top, rs); got < 1 {
		t.Fatalf("day-2 Repair = %d", got)
	}
	if n.SwitchFaulty(bad1) || n.SwitchFaulty(bad2) {
		t.Fatal("black-holes remain after two days of repair")
	}
}
