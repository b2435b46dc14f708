package silentdrop

import (
	"math/rand/v2"
	"testing"

	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// pairsThroughSpine builds cross-podset pairs whose five-tuples route
// through the given spine (and some that do not).
func pairsThroughSpine(n *netsim.Network, spine topology.SwitchID, want int) []Pair {
	top := n.Topology()
	var out []Pair
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	for port := uint16(34000); len(out) < want && port < 40000; port++ {
		hops, ok := n.Path(src, dst, port, 8765)
		if !ok {
			continue
		}
		for _, h := range hops {
			if h == spine {
				out = append(out, Pair{Src: src, Dst: dst, SrcPort: port, DstPort: 8765})
				break
			}
		}
	}
	return out
}

func TestLocalizeFindsLossySpine(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	spine := top.DCs[0].Spines[1]
	n.SetRandomDrop(spine, 0.02, true) // Figure 7: 1-2% silent random drops

	pairs := pairsThroughSpine(n, spine, 6)
	if len(pairs) < 3 {
		t.Fatalf("only %d pairs route through the spine", len(pairs))
	}
	l := &Localizer{Net: n, ProbesPerHop: 800, Rand: rand.New(rand.NewPCG(1, 2))}
	suspects := l.Localize(pairs)
	if len(suspects) == 0 {
		t.Fatal("no suspects found")
	}
	if suspects[0].Switch != spine {
		t.Fatalf("top suspect = %v (loss %v, pairs %d), want spine %v",
			suspects[0].Switch, suspects[0].Loss, suspects[0].Pairs, spine)
	}
	if suspects[0].Loss < 0.01 || suspects[0].Loss > 0.06 {
		t.Fatalf("loss estimate %v implausible for 2%% drop (round trip ~4%%)", suspects[0].Loss)
	}
}

func TestLocalizeHealthyNetworkQuiet(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	pairs := pairsThroughSpine(n, top.DCs[0].Spines[0], 4)
	l := &Localizer{Net: n, ProbesPerHop: 400, Rand: rand.New(rand.NewPCG(3, 4))}
	suspects := l.Localize(pairs)
	// Baseline loss is ~1e-5 per hop: far below the 0.5% threshold.
	for _, s := range suspects {
		if s.Pairs > 1 {
			t.Fatalf("healthy network produced consistent suspect %v", s)
		}
	}
}

func TestIsolationEndsIncident(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	spine := top.DCs[0].Spines[2]
	n.SetRandomDrop(spine, 0.02, true)

	pairs := pairsThroughSpine(n, spine, 4)
	l := &Localizer{Net: n, ProbesPerHop: 600, Rand: rand.New(rand.NewPCG(5, 6))}
	suspects := l.Localize(pairs)
	if len(suspects) == 0 || suspects[0].Switch != spine {
		t.Fatalf("localization failed: %v", suspects)
	}

	// Mitigate: isolate the switch from live traffic (§5.2). ECMP then
	// routes affected five-tuples around it.
	n.IsolateSwitch(suspects[0].Switch)
	rng := rand.New(rand.NewPCG(7, 8))
	retx := 0
	count := 30000
	src, dst := pairs[0].Src, pairs[0].Dst
	for i := 0; i < count; i++ {
		res := n.Probe(netsim.ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(35000 + i%5000), DstPort: 8765}, rng)
		if res.Err == "" && res.Attempts > 1 {
			retx++
		}
	}
	if rate := float64(retx) / float64(count); rate > 1e-3 {
		t.Fatalf("drop rate %g after isolation, want back to baseline", rate)
	}
	// The fault is hardware: a reload does NOT fix it; RMA does.
	n.ReloadSwitch(spine)
	if !n.SwitchFaulty(spine) {
		t.Fatal("reload cleared a hardware fault")
	}
	n.ReplaceSwitch(spine)
	if n.SwitchFaulty(spine) {
		t.Fatal("RMA did not clear the fault")
	}
}

func TestAffectedPairsFromStats(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	a := top.Server(0).Addr.String()
	b := top.Server(1).Addr.String()
	c := top.Server(2).Addr.String()
	rates := map[string]float64{
		a + "|" + b:   2e-3,
		b + "|" + c:   5e-3,
		a + "|" + c:   1e-5, // below threshold
		"bogus|entry": 9e-1, // unparseable: skipped
	}
	pairs := AffectedPairsFromStats(top, rates, 1e-3, 10)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	// Ordered by rate descending.
	if top.Server(pairs[0].Src).Addr.String() != b {
		t.Fatalf("first pair = %+v, want the 5e-3 one", pairs[0])
	}
	// Limit applies.
	if got := AffectedPairsFromStats(top, rates, 1e-3, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
	// Distinct source ports per pair.
	if pairs[0].SrcPort == pairs[1].SrcPort {
		t.Fatal("pairs share a source port")
	}
}
