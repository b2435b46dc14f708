package netsim

import (
	"math/rand/v2"
	"sync"
	"testing"

	"pingmesh/internal/topology"
)

func edgeTestNet(t *testing.T) (*Network, *topology.Topology) {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{{
		Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 2,
		LeavesPerPodset: 2, Spines: 2,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// A lossless profile makes the edge-case assertions deterministic.
	prof := Profile{Name: "lossless"}
	n, err := New(top, Config{Profiles: []Profile{prof}})
	if err != nil {
		t.Fatal(err)
	}
	return n, top
}

// TestTraceProbeTTLBeyondPath: a TTL larger than the path length reaches
// the destination host, which answers with hop -1 and ok.
func TestTraceProbeTTLBeyondPath(t *testing.T) {
	n, top := edgeTestNet(t)
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	hops, ok := n.Path(src, dst, 40000, 80)
	if !ok {
		t.Fatal("no path")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for _, ttl := range []int{len(hops) + 1, len(hops) + 5, 64} {
		if hop, ok := n.TraceProbe(src, dst, 40000, 80, ttl, rng); !ok || hop != -1 {
			t.Fatalf("ttl=%d: got hop %v ok %v, want the host's answer (hop -1, ok)", ttl, hop, ok)
		}
	}
}

// TestTraceProbeTTLOnePinsFirstHop: TTL=1 must always answer from the
// source ToR — the first hop of every route.
func TestTraceProbeTTLOnePinsFirstHop(t *testing.T) {
	n, top := edgeTestNet(t)
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	rng := rand.New(rand.NewPCG(2, 2))
	hop, ok := n.TraceProbe(src, dst, 41000, 80, 1, rng)
	if !ok {
		t.Fatalf("lossless fabric dropped a TTL=1 trace: hop %v", hop)
	}
	if want := top.ToROf(src); hop != want {
		t.Fatalf("TTL=1 answered by %v, want source ToR %v", hop, want)
	}
	if hop, ok := n.TraceProbe(src, dst, 41000, 80, 0, rng); ok || hop != -1 {
		t.Fatalf("TTL=0 answered: hop %v ok %v", hop, ok)
	}
}

// TestTraceProbeBlackholeKillsTrace: a black-hole on hop j kills every
// trace with TTL >= j but leaves TTL < j traces answering — the signature
// the diagnosis pin step keys on.
func TestTraceProbeBlackholeKillsTrace(t *testing.T) {
	n, top := edgeTestNet(t)
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[0].Pods[1].Servers[0] // same podset: 3 hops
	hole := top.ToROf(dst)                          // hop 3
	n.AddBlackhole(hole, Blackhole{MatchFraction: 1})
	rng := rand.New(rand.NewPCG(3, 3))
	for ttl := 1; ttl <= 2; ttl++ {
		if hop, ok := n.TraceProbe(src, dst, 42000, 80, ttl, rng); !ok {
			t.Fatalf("ttl=%d before the hole dropped: hop %v", ttl, hop)
		}
	}
	for _, ttl := range []int{3, 4, 10} {
		if hop, ok := n.TraceProbe(src, dst, 42000, 80, ttl, rng); ok {
			t.Fatalf("ttl=%d crossed a full black-hole: hop %v", ttl, hop)
		}
	}
}

// TestTraceProbeConcurrentFaultInjection races trace probes against fault
// mutation — the portal serves /diagnose while operators inject and clear
// faults. Run under -race.
func TestTraceProbeConcurrentFaultInjection(t *testing.T) {
	n, top := edgeTestNet(t)
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	leaf := top.DCs[0].Podsets[0].Leaves[0]
	spine := top.DCs[0].Spines[0]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n.TraceProbe(src, dst, 43000, 80, 1+i%8, rng)
			}
		}(uint64(g))
	}
	for i := 0; i < 200; i++ {
		n.AddBlackhole(leaf, Blackhole{MatchFraction: 0.5})
		n.SetRandomDrop(spine, 0.1, false)
		n.ReloadSwitch(leaf)
		n.ReloadSwitch(spine)
	}
	close(stop)
	wg.Wait()
}

// TestAppendPathMatchesPath: AppendPath must return exactly Path's hops,
// into the caller's buffer, without allocating when capacity suffices.
func TestAppendPathMatchesPath(t *testing.T) {
	n, top := edgeTestNet(t)
	servers := top.Servers()
	buf := make([]topology.SwitchID, 0, 8)
	for i := 0; i < len(servers); i++ {
		for j := 0; j < len(servers); j++ {
			if i == j {
				continue
			}
			src, dst := servers[i].ID, servers[j].ID
			want, wantOK := n.Path(src, dst, 44000, 80)
			got, ok := n.AppendPath(buf[:0], src, dst, 44000, 80)
			if ok != wantOK {
				t.Fatalf("pair (%d,%d): ok=%v want %v", src, dst, ok, wantOK)
			}
			if len(got) != len(want) {
				t.Fatalf("pair (%d,%d): %v vs %v", src, dst, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("pair (%d,%d): %v vs %v", src, dst, got, want)
				}
			}
		}
	}
	src := servers[0].ID
	dst := servers[len(servers)-1].ID
	avg := testing.AllocsPerRun(1000, func() {
		buf2, _ := n.AppendPath(buf[:0], src, dst, 44000, 80)
		buf = buf2[:0]
	})
	if avg != 0 {
		t.Fatalf("AppendPath allocates %.2f allocs/op with capacity, want 0", avg)
	}
}
