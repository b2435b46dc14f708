package diagnosis

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"testing"
	"time"

	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// TestPinNeverBlamesAnInnocentSwitch runs the chain's pin step, with no
// votes wired, over 192 cross-podset pairs of Figure 7's fleet (every
// server against the same slot in each other podset) on five fabrics. A
// pin must only ever name the faulty switch, and §5.2's fault — a spine
// silently dropping 1-2 % — must be pinned for most pairs. The floors of
// the other fabrics are what the chain pinned before the pin step shared
// the §5.2 localiser.
func TestPinNeverBlamesAnInnocentSwitch(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dc := top.DCs[0]
	var pairs [][2]topology.ServerID
	for i, ps := range dc.Podsets {
		for p, pod := range ps.Pods {
			for s, src := range pod.Servers {
				for _, j := range []int{1, 2} {
					pairs = append(pairs, [2]topology.ServerID{src, dc.Podsets[(i+j)%3].Pods[p].Servers[s]})
				}
			}
		}
	}
	spine, leaf := dc.Spines[3], dc.Podsets[0].Leaves[1]
	for _, tc := range []struct {
		name      string
		faulty    topology.SwitchID // -1: a clean fabric
		drop      float64
		minPinned int
	}{
		{"clean", -1, 0, 0},
		{"spine 1.0%", spine, 0.010, 0},
		{"spine 1.5%", spine, 0.015, 96},
		{"leaf 2%", leaf, 0.02, 42},
		{"spine 5%", spine, 0.05, 189},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.faulty >= 0 {
				net.SetRandomDrop(tc.faulty, tc.drop, true)
			}
			e := &Engine{Top: top, Paths: net, Tracer: net, Seed: 7}
			pinned := 0
			for _, p := range pairs {
				ch := e.Diagnose(p[0], p[1], nil)
				if ch.PinnedHop == "" {
					continue
				}
				if tc.faulty < 0 || ch.PinnedHop != top.Switch(tc.faulty).Name {
					t.Errorf("%s -> %s pinned the innocent %s", ch.Src, ch.Dst, ch.PinnedHop)
				}
				pinned++
			}
			t.Logf("pinned %d of %d pairs", pinned, len(pairs))
			if pinned < tc.minPinned {
				t.Errorf("pinned %d of %d pairs, want at least %d", pinned, len(pairs), tc.minPinned)
			}
		})
	}
}

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

func TestLocalizeFindsLossySpine(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	spine := top.DCs[0].Spines[1]
	n.SetRandomDrop(spine, 0.02, true) // Figure 7: 1-2% silent random drops

	// Cross-podset five-tuples routed through the spine: the ones whose
	// probes dropped.
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	var tuples []Tuple
	for port := uint16(34000); len(tuples) < 6 && port < 40000; port++ {
		hops, _ := n.Path(src, dst, port, 8765)
		if slices.Contains(hops, spine) {
			tuples = append(tuples, Tuple{FiveTuple: FiveTuple{Src: src, Dst: dst, SrcPort: port, DstPort: 8765}, Hops: hops})
		}
	}
	if len(tuples) < 3 {
		t.Fatalf("only %d tuples route through the spine", len(tuples))
	}
	pins := PinLoss(n, tuples, 800, rand.New(rand.NewPCG(1, 2)))
	if len(pins) == 0 {
		t.Fatal("nothing pinned")
	}
	if p := pins[0]; p.Switch != spine || p.Tuples != len(tuples) {
		t.Fatalf("first pin = %+v, want spine %v crossed by all %d tuples", p, spine, len(tuples))
	}
	if l := pins[0].Loss; l < 0.01 || l > 0.03 {
		t.Fatalf("per-traversal loss estimate %v implausible for a 2%% drop", l)
	}
}

func TestAffectedPairsFromStats(t *testing.T) {
	n := testNet(t)
	top := n.Topology()
	a, b, c := top.Server(0).Addr, top.Server(1).Addr, top.Server(2).Addr
	rates := map[string]float64{
		a.String() + "|" + b.String(): 2e-3,
		b.String() + "|" + c.String(): 5e-3,
		a.String() + "|" + c.String(): 1e-5, // below threshold
		"bogus|entry":                 9e-1, // unparseable: skipped
	}
	rec := func(src, dst netip.Addr, srcPort uint16, rtt time.Duration) probe.Record {
		return probe.Record{Src: src, Dst: dst, SrcPort: srcPort, DstPort: 8765, RTT: rtt}
	}
	recs := []probe.Record{
		rec(a, b, 40001, 3*time.Second),
		rec(b, c, 40002, 3*time.Second),
		rec(b, c, 40003, 300*time.Microsecond), // no drop signature: not traced
		rec(b, c, 40004, 9*time.Second),
		rec(b, c, 40002, 3*time.Second), // the same five-tuple again
		rec(a, c, 40005, 3*time.Second), // its pair is not elevated
	}
	// Most elevated pair first, each with the five-tuples that dropped and
	// the hops each crosses.
	want := []struct {
		src  netip.Addr
		port uint16
	}{{b, 40002}, {b, 40004}, {a, 40001}}
	tuples := AffectedPairsFromStats(top, n, rates, recs, 1e-3, 10)
	if len(tuples) != len(want) {
		t.Fatalf("tuples = %+v", tuples)
	}
	for i, tu := range tuples {
		if top.Server(tu.Src).Addr != want[i].src || tu.SrcPort != want[i].port || tu.DstPort != 8765 {
			t.Fatalf("tuple %d = %+v, want %v's five-tuple with source port %d", i, tu, want[i].src, want[i].port)
		}
		if hops, _ := n.Path(tu.Src, tu.Dst, tu.SrcPort, tu.DstPort); !slices.Equal(tu.Hops, hops) {
			t.Fatalf("tuple %d crosses %v, want %v", i, tu.Hops, hops)
		}
	}
	// Limit applies to pairs.
	if got := AffectedPairsFromStats(top, n, rates, recs, 1e-3, 1); len(got) != 2 || got[0].SrcPort != 40002 {
		t.Fatalf("limit ignored: %+v", got)
	}
}
