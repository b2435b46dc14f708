package netsim

import (
	"sync"
	"testing"
	"time"

	"pingmesh/internal/topology"
)

// TestSinglePodTopology exercises the degenerate fabric: one rack, no
// leaves or spines needed.
func TestSinglePodTopology(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "TINY", Podsets: 1, PodsPerPodset: 1, ServersPerPod: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(top, Config{Profiles: []Profile{DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	pod := top.PodOf(0)
	hops, ok := n.Path(pod.Servers[0], pod.Servers[1], 40000, 8765)
	if !ok || len(hops) != 1 {
		t.Fatalf("single-pod path = %v, %v", hops, ok)
	}
	res := n.Probe(ProbeSpec{Src: pod.Servers[0], Dst: pod.Servers[1], SrcPort: 40000, DstPort: 8765}, rng(61))
	if res.Err != "" {
		t.Fatalf("probe failed: %s", res.Err)
	}
}

func TestUnreachableElapsedIsConnectTimeout(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	n.SetPodsetDown(0, 0, true)
	src, dst := pairOfKind(top, "cross-podset")
	res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 1, DstPort: 2}, rng(62))
	if res.Err != ErrUnreachable {
		t.Fatalf("Err = %q", res.Err)
	}
	// The agent burns the full SYN retry timeline before giving up.
	if res.Elapsed != ConnectFailAt {
		t.Fatalf("Elapsed = %v, want %v", res.Elapsed, ConnectFailAt)
	}
	if res.Attempts != SYNRetries+1 {
		t.Fatalf("Attempts = %d", res.Attempts)
	}
}

func TestProfileFallbackWhenFewerProfilesThanDCs(t *testing.T) {
	top := testTopology(t) // two DCs
	n, err := New(top, Config{Profiles: []Profile{DC5Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	// A cross-DC probe touches DC 1, which has no profile of its own: the
	// last profile must be reused rather than panicking.
	src, dst := pairOfKind(top, "cross-dc")
	if res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 40000, DstPort: 8765}, rng(63)); res.Err != "" {
		t.Fatalf("probe failed: %s", res.Err)
	}
}

func TestDefaultInterDCApplied(t *testing.T) {
	top := testTopology(t)
	n, err := New(top, Config{Profiles: []Profile{DC2Profile(), DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.InterDC.BaseOneWay == 0 {
		t.Fatal("InterDC defaults not applied")
	}
	src, dst := pairOfKind(top, "cross-dc")
	res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 40000, DstPort: 8765}, rng(64))
	if res.Err != "" || res.RTT < 2*n.cfg.InterDC.BaseOneWay {
		t.Fatalf("cross-DC RTT %v below WAN floor", res.RTT)
	}
}

func TestLeafBlackholeSparesIntraPod(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	leaf := top.DCs[0].Podsets[0].Leaves[0]
	n.AddBlackhole(leaf, Blackhole{MatchFraction: 1.0}) // kills everything through this leaf
	r := rng(65)

	// Intra-pod traffic never crosses a leaf: always fine.
	src, dst := pairOfKind(top, "intra-pod")
	for i := 0; i < 20; i++ {
		if res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(41000 + i), DstPort: 8765}, r); res.Err != "" {
			t.Fatalf("intra-pod probe died at the leaf: %s", res.Err)
		}
	}
	// Inter-pod probes fail exactly when ECMP picks the dead leaf.
	src2, dst2 := pairOfKind(top, "intra-podset")
	failures := 0
	for i := 0; i < 200; i++ {
		if res := n.Probe(ProbeSpec{Src: src2, Dst: dst2, SrcPort: uint16(42000 + i), DstPort: 8765}, r); res.Err != "" {
			failures++
		}
	}
	// Two leaves: roughly half the five-tuples hash through the dead one.
	if failures < 50 || failures > 150 {
		t.Fatalf("failures = %d of 200, want ~100 (one of two leaves dead)", failures)
	}
}

func TestTraceProbeUnreachable(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	n.SetPodsetDown(0, 1, true)
	src, dst := pairOfKind(top, "cross-podset")
	if _, ok := n.TraceProbe(src, dst, 1, 2, 1, rng(66)); ok {
		t.Fatal("trace into downed podset answered")
	}
}

// TestConcurrentProbesAndFaultInjection exercises the lock-free fault
// table under churn (meaningful under -race).
func TestConcurrentProbesAndFaultInjection(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "cross-podset")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng(uint64(70 + w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(43000 + i%1000), DstPort: 8765}, r)
			}
		}(w)
	}
	spine := top.DCs[0].Spines[0]
	for i := 0; i < 200; i++ {
		n.SetRandomDrop(spine, 0.01, false)
		n.IsolateSwitch(spine)
		n.UnisolateSwitch(spine)
		n.ReloadSwitch(spine)
		n.SetPodsetDegraded(0, 1, Degradation{ExtraLatencyMean: time.Millisecond})
		n.SetPodsetDegraded(0, 1, Degradation{})
	}
	close(stop)
	wg.Wait()
	if n.SwitchFaulty(spine) {
		t.Fatal("final reload did not clear the fault")
	}
}

func TestFCSErrorOnSYNOnlyProbes(t *testing.T) {
	// FCS loss scales with packet size; bare SYNs are small but not
	// immune. A huge per-byte rate must still kill even SYN probes.
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "intra-pod")
	n.SetFCSError(top.ToROf(src), 0.01) // absurd: ~46% per 60B packet per direction
	r := rng(67)
	failures := 0
	for i := 0; i < 200; i++ {
		res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(44000 + i), DstPort: 8765}, r)
		if res.Err != "" || res.Attempts > 1 {
			failures++
		}
	}
	if failures < 50 {
		t.Fatalf("failures+retx = %d of 200 despite massive FCS error rate", failures)
	}
}

func TestBlackholePairsAndFractionCombine(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "intra-pod")
	other := top.PodOf(src).Servers[2]
	// An explicit pair plus a zero fraction: only the listed pair dies.
	n.AddBlackhole(top.ToROf(src), Blackhole{
		Pairs: []AddrPair{{Src: top.Server(src).Addr, Dst: top.Server(dst).Addr}},
	})
	r := rng(68)
	if res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 45000, DstPort: 8765}, r); res.Err != ErrTimeout {
		t.Fatalf("listed pair err = %q", res.Err)
	}
	if res := n.Probe(ProbeSpec{Src: src, Dst: other, SrcPort: 45001, DstPort: 8765}, r); res.Err != "" {
		t.Fatalf("unlisted pair err = %q", res.Err)
	}
}

func TestProfileValidation(t *testing.T) {
	top := testTopology(t)
	// Every built-in profile passes: Table 1's five DCs.
	if n := len(DefaultProfiles()); n != 5 {
		t.Fatalf("%d built-in profiles, want Table 1's 5", n)
	}
	for _, p := range DefaultProfiles() {
		if _, err := New(top, Config{Profiles: []Profile{p, p}}); err != nil {
			t.Fatalf("built-in profile %s rejected: %v", p.Name, err)
		}
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.HostBase = -time.Microsecond },
		func(p *Profile) { p.QueueMean = -time.Microsecond },
		func(p *Profile) { p.BurstProb = 1.5 },
		func(p *Profile) { p.HostDrop = -1e-6 },
		func(p *Profile) { p.SpineDrop = 2 },
		func(p *Profile) { p.RetryDropBoost = -0.1 },
	}
	for i, mut := range bad {
		p := DC1Profile()
		mut(&p)
		if _, err := New(top, Config{Profiles: []Profile{p, p}}); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}
