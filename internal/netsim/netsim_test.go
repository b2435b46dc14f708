package netsim

import (
	"math/rand/v2"
	"testing"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

func testTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func testNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := New(testTopology(t), Config{Profiles: []Profile{DC1Profile(), DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }

// pairOfKind returns a (src,dst) pair with the requested locality.
func pairOfKind(top *topology.Topology, kind string) (topology.ServerID, topology.ServerID) {
	switch kind {
	case "intra-pod":
		p := top.PodOf(0)
		return p.Servers[0], p.Servers[1]
	case "intra-podset":
		ps := top.PodsetOf(0)
		return ps.Pods[0].Servers[0], ps.Pods[1].Servers[0]
	case "cross-podset":
		return top.DCs[0].Podsets[0].Pods[0].Servers[0], top.DCs[0].Podsets[1].Pods[0].Servers[0]
	case "cross-dc":
		return top.DCs[0].Podsets[0].Pods[0].Servers[0], top.DCs[1].Podsets[0].Pods[0].Servers[0]
	}
	panic("unknown kind")
}

func TestNewRequiresProfiles(t *testing.T) {
	if _, err := New(testTopology(t), Config{}); err == nil {
		t.Fatal("New accepted empty profile list")
	}
}

func TestPathShapes(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	cases := []struct {
		kind string
		hops int
	}{
		{"intra-pod", 1},
		{"intra-podset", 3},
		{"cross-podset", 5},
		{"cross-dc", 6},
	}
	for _, c := range cases {
		src, dst := pairOfKind(top, c.kind)
		hops, ok := n.Path(src, dst, 50000, 9000)
		if !ok {
			t.Fatalf("%s: no path", c.kind)
		}
		if len(hops) != c.hops {
			t.Fatalf("%s: %d hops, want %d", c.kind, len(hops), c.hops)
		}
		// First and last hops must be the endpoint ToRs (except intra-pod).
		if hops[0] != top.ToROf(src) {
			t.Fatalf("%s: path does not start at source ToR", c.kind)
		}
		if hops[len(hops)-1] != top.ToROf(dst) {
			t.Fatalf("%s: path does not end at destination ToR", c.kind)
		}
	}
}

func TestPathDeterministicPerTuple(t *testing.T) {
	n := testNetwork(t)
	src, dst := pairOfKind(n.Topology(), "cross-podset")
	a, _ := n.Path(src, dst, 1234, 80)
	b, _ := n.Path(src, dst, 1234, 80)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same five-tuple produced different paths")
		}
	}
}

func TestPathECMPSpreadsAcrossSpines(t *testing.T) {
	n := testNetwork(t)
	src, dst := pairOfKind(n.Topology(), "cross-podset")
	seen := map[topology.SwitchID]bool{}
	for port := uint16(40000); port < 40400; port++ {
		hops, ok := n.Path(src, dst, port, 80)
		if !ok {
			t.Fatal("no path")
		}
		seen[hops[2]] = true // spine position
	}
	if len(seen) < 3 {
		t.Fatalf("400 source ports hit only %d spines, want >=3 of 4", len(seen))
	}
}

func TestIsolatedSpineLeavesRotation(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	victim := top.DCs[0].Spines[0]
	n.IsolateSwitch(victim)
	src, dst := pairOfKind(top, "cross-podset")
	for port := uint16(40000); port < 40200; port++ {
		hops, ok := n.Path(src, dst, port, 80)
		if !ok {
			t.Fatal("no path with one spine isolated")
		}
		for _, h := range hops {
			if h == victim {
				t.Fatal("isolated spine still on path")
			}
		}
	}
	n.UnisolateSwitch(victim)
	found := false
	for port := uint16(40000); port < 40200; port++ {
		hops, _ := n.Path(src, dst, port, 80)
		for _, h := range hops {
			if h == victim {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("unisolated spine never returned to rotation")
	}
}

func TestAllSpinesIsolatedUnreachable(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	for _, s := range top.DCs[0].Spines {
		n.IsolateSwitch(s)
	}
	src, dst := pairOfKind(top, "cross-podset")
	if _, ok := n.Path(src, dst, 1, 2); ok {
		t.Fatal("path exists with all spines isolated")
	}
	res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 1, DstPort: 2}, rng(1))
	if res.Err != ErrUnreachable {
		t.Fatalf("Err = %q, want unreachable", res.Err)
	}
	// Intra-podset traffic is unaffected.
	src2, dst2 := pairOfKind(top, "intra-podset")
	if _, ok := n.Path(src2, dst2, 1, 2); !ok {
		t.Fatal("intra-podset path should not need spines")
	}
}

func measure(n *Network, src, dst topology.ServerID, count int, seed uint64, payload int) (*metrics.Histogram, int, int) {
	h := metrics.NewLatencyHistogram()
	r := rng(seed)
	fails, retx := 0, 0
	start := time.Unix(1750000000, 0)
	for i := 0; i < count; i++ {
		res := n.Probe(ProbeSpec{
			Src: src, Dst: dst,
			SrcPort: uint16(32768 + i%28000), DstPort: 9000,
			PayloadLen: payload,
			Start:      start,
		}, r)
		if res.Err != "" {
			fails++
			continue
		}
		if res.Attempts > 1 {
			retx++
		}
		h.Observe(res.RTT)
	}
	return h, fails, retx
}

func TestProbeLatencyShape(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	srcIP, dstIP := pairOfKind(top, "intra-pod")
	intra, fails, _ := measure(n, srcIP, dstIP, 30000, 2, 0)
	if fails > 5 {
		t.Fatalf("intra-pod fails = %d", fails)
	}
	srcXP, dstXP := pairOfKind(top, "cross-podset")
	inter, _, _ := measure(n, srcXP, dstXP, 30000, 3, 0)

	ip50, xp50 := intra.Percentile(0.5), inter.Percentile(0.5)
	if ip50 >= xp50 {
		t.Fatalf("intra-pod P50 %v >= inter-pod P50 %v", ip50, xp50)
	}
	// The gap should be tens of microseconds (queuing), not milliseconds.
	if gap := xp50 - ip50; gap < 10*time.Microsecond || gap > 500*time.Microsecond {
		t.Fatalf("P50 gap = %v, want tens of µs", gap)
	}
	// Absolute scale: P50 in the hundreds of microseconds.
	if ip50 < 100*time.Microsecond || ip50 > time.Millisecond {
		t.Fatalf("intra-pod P50 = %v, want ~200µs", ip50)
	}
	// P99 around a millisecond.
	if p99 := inter.Percentile(0.99); p99 < 400*time.Microsecond || p99 > 8*time.Millisecond {
		t.Fatalf("inter-pod P99 = %v, want ~1-2ms", p99)
	}
}

func TestProbeCrossDCLatency(t *testing.T) {
	n := testNetwork(t)
	src, dst := pairOfKind(n.Topology(), "cross-dc")
	h, fails, _ := measure(n, src, dst, 5000, 4, 0)
	if fails > 5 {
		t.Fatalf("cross-dc fails = %d", fails)
	}
	if p50 := h.Percentile(0.5); p50 < 20*time.Millisecond || p50 > 40*time.Millisecond {
		t.Fatalf("cross-DC P50 = %v, want ~24ms", p50)
	}
}

func TestProbeRetransmitSignature(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	// Crank up drop rates so retransmissions are common enough to observe
	// without millions of probes.
	sw := top.DCs[0].Spines[0]
	n.SetRandomDrop(sw, 0.02, false)
	src, dst := pairOfKind(top, "cross-podset")
	r := rng(5)
	sawRetx := false
	for i := 0; i < 20000 && !sawRetx; i++ {
		// Fixed source port keeps the path through the lossy spine.
		res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 33011, DstPort: 9000}, r)
		if res.Err == "" && res.RTT > SYNTimeout && res.RTT < SYNTimeout+time.Second {
			sawRetx = true
		}
	}
	// Verify the path actually goes through the lossy spine; if not, pick
	// a port that does.
	hops, _ := n.Path(src, dst, 33011, 9000)
	onPath := false
	for _, h := range hops {
		if h == sw {
			onPath = true
		}
	}
	if onPath && !sawRetx {
		t.Fatal("no ~3s retransmit RTT observed despite 2% spine loss")
	}
}

func TestProbeDropRatesCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs many probes")
	}
	n := testNetwork(t)
	top := n.Topology()
	count := 400000
	src, dst := pairOfKind(top, "intra-pod")
	_, _, retxIntra := measure(n, src, dst, count, 6, 0)
	srcX, dstX := pairOfKind(top, "cross-podset")
	_, _, retxInter := measure(n, srcX, dstX, count, 7, 0)
	intraRate := float64(retxIntra) / float64(count)
	interRate := float64(retxInter) / float64(count)
	// Table 1 band: intra-pod ~1e-5, inter-pod several-fold higher.
	if intraRate > 2e-4 {
		t.Fatalf("intra-pod drop rate %g too high", intraRate)
	}
	if interRate < intraRate {
		t.Fatalf("inter-pod drop rate %g < intra-pod %g", interRate, intraRate)
	}
	if interRate < 1e-5 || interRate > 5e-4 {
		t.Fatalf("inter-pod drop rate %g outside 1e-5..5e-4", interRate)
	}
}

func TestBlackholeExplicitPair(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "intra-podset")
	other := top.PodsetOf(src).Pods[2].Servers[0]
	tor := top.ToROf(dst)
	n.AddBlackhole(tor, Blackhole{Pairs: []AddrPair{{Src: top.Server(src).Addr, Dst: top.Server(dst).Addr}}})

	r := rng(8)
	for i := 0; i < 20; i++ {
		res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(40000 + i), DstPort: 9000}, r)
		if res.Err != ErrTimeout {
			t.Fatalf("black-holed pair probe %d: err = %q, want timeout", i, res.Err)
		}
	}
	// Unaffected pair through a different ToR works.
	if res := n.Probe(ProbeSpec{Src: src, Dst: other, SrcPort: 40000, DstPort: 9000}, r); res.Err != "" {
		t.Fatalf("unaffected pair failed: %q", res.Err)
	}
	// Reload clears the black-hole (§5.1).
	n.ReloadSwitch(tor)
	if res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 40001, DstPort: 9000}, r); res.Err != "" {
		t.Fatalf("pair still black-holed after reload: %q", res.Err)
	}
}

func TestBlackholeFractionDeterministic(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	tor := top.ToROf(0)
	n.AddBlackhole(tor, Blackhole{MatchFraction: 0.3})
	pod := top.PodOf(0)
	src := pod.Servers[0]
	r := rng(9)
	affected := 0
	for _, dst := range pod.Servers[1:] {
		res1 := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 41000, DstPort: 9000}, r)
		res2 := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 41001, DstPort: 9000}, r)
		// Type-1 black-hole ignores ports: both probes must agree.
		if (res1.Err == ErrTimeout) != (res2.Err == ErrTimeout) {
			t.Fatal("address-based black-hole varied with source port")
		}
		if res1.Err == ErrTimeout {
			affected++
		}
	}
	_ = affected // fraction over 3 pairs is noisy; determinism is the point
}

func TestBlackholeWithPortsVariesBySourcePort(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "intra-pod")
	n.AddBlackhole(top.ToROf(src), Blackhole{MatchFraction: 0.5, IncludePorts: true})
	r := rng(10)
	timeouts, oks := 0, 0
	for port := uint16(42000); port < 42100; port++ {
		res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: port, DstPort: 9000}, r)
		if res.Err == ErrTimeout {
			timeouts++
		} else if res.Err == "" {
			oks++
		}
	}
	if timeouts == 0 || oks == 0 {
		t.Fatalf("type-2 black-hole: timeouts=%d oks=%d, want both nonzero", timeouts, oks)
	}
}

func TestRandomDropPersistence(t *testing.T) {
	n := testNetwork(t)
	sw := n.Topology().DCs[0].Spines[1]
	n.SetRandomDrop(sw, 0.01, true)
	n.ReloadSwitch(sw)
	if !n.SwitchFaulty(sw) {
		t.Fatal("persistent fault cleared by reload")
	}
	n.ReplaceSwitch(sw)
	if n.SwitchFaulty(sw) {
		t.Fatal("fault survived RMA replacement")
	}
	// Non-persistent drops do clear on reload.
	n.SetRandomDrop(sw, 0.01, false)
	n.ReloadSwitch(sw)
	if n.SwitchFaulty(sw) {
		t.Fatal("non-persistent fault survived reload")
	}
}

func TestPodsetDown(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	n.SetPodsetDown(0, 1, true)
	src, dst := pairOfKind(top, "cross-podset") // dst in podset 1
	if n.ServerUp(dst) {
		t.Fatal("server in downed podset reported up")
	}
	if !n.ServerUp(src) {
		t.Fatal("server in healthy podset reported down")
	}
	res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 1, DstPort: 2}, rng(11))
	if res.Err != ErrUnreachable {
		t.Fatalf("probe to downed podset: %q", res.Err)
	}
	n.SetPodsetDown(0, 1, false)
	if res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: 1, DstPort: 2}, rng(12)); res.Err != "" {
		t.Fatalf("probe after power-on: %q", res.Err)
	}
}

func TestPodsetDegradedLatency(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "cross-podset")
	before, _, _ := measure(n, src, dst, 4000, 13, 0)
	n.SetPodsetDegraded(0, 1, Degradation{ExtraLatencyMean: 5 * time.Millisecond})
	after, _, _ := measure(n, src, dst, 4000, 14, 0)
	if after.Percentile(0.5) < before.Percentile(0.5)+2*time.Millisecond {
		t.Fatalf("degraded podset P50 %v not clearly above baseline %v",
			after.Percentile(0.5), before.Percentile(0.5))
	}
	// Clearing restores.
	n.SetPodsetDegraded(0, 1, Degradation{})
	restored, _, _ := measure(n, src, dst, 4000, 15, 0)
	if restored.Percentile(0.5) > before.Percentile(0.5)*2 {
		t.Fatal("degradation did not clear")
	}
}

func TestTierDegradedSpineOnlyAffectsCrossPodset(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	n.SetTierDegraded(0, topology.TierSpine, Degradation{ExtraLatencyMean: 8 * time.Millisecond})
	srcI, dstI := pairOfKind(top, "intra-podset")
	intra, _, _ := measure(n, srcI, dstI, 4000, 16, 0)
	srcX, dstX := pairOfKind(top, "cross-podset")
	cross, _, _ := measure(n, srcX, dstX, 4000, 17, 0)
	if intra.Percentile(0.5) > 2*time.Millisecond {
		t.Fatalf("intra-podset P50 %v affected by spine degradation", intra.Percentile(0.5))
	}
	if cross.Percentile(0.5) < 5*time.Millisecond {
		t.Fatalf("cross-podset P50 %v not affected by spine degradation", cross.Percentile(0.5))
	}
}

func TestPayloadRTTExceedsSYNRTT(t *testing.T) {
	n := testNetwork(t)
	src, dst := pairOfKind(n.Topology(), "cross-podset")
	r := rng(18)
	hRTT := metrics.NewLatencyHistogram()
	hPayload := metrics.NewLatencyHistogram()
	for i := 0; i < 3000; i++ {
		res := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(43000 + i%1000), DstPort: 9000, PayloadLen: 1000}, r)
		if res.Err != "" {
			continue
		}
		if res.PayloadRTT == 0 {
			t.Fatal("payload probe returned no PayloadRTT")
		}
		hRTT.Observe(res.RTT)
		hPayload.Observe(res.PayloadRTT)
	}
	// The median payload echo costs tens of µs more than the SYN RTT
	// (user-space echo + serialization), as in Figure 4(d).
	if hPayload.Percentile(0.5) <= hRTT.Percentile(0.5)+20*time.Microsecond {
		t.Fatalf("payload P50 %v not clearly above SYN P50 %v",
			hPayload.Percentile(0.5), hRTT.Percentile(0.5))
	}
}

func TestFCSErrorHitsLargePacketsHarder(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "intra-pod")
	n.SetFCSError(top.ToROf(src), 2e-6) // per byte
	r := rng(19)
	count := 3000
	smallRetx, largeRetx := 0, 0
	for i := 0; i < count; i++ {
		small := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(44000 + i%1000), DstPort: 9000, PayloadLen: 64}, r)
		large := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(45000 + i%1000), DstPort: 9000, PayloadLen: 16000}, r)
		if small.Err == "" && small.PayloadRTT > payloadRTO {
			smallRetx++
		}
		if large.Err == "" && large.PayloadRTT > payloadRTO {
			largeRetx++
		}
	}
	if largeRetx <= smallRetx {
		t.Fatalf("FCS: large-payload retransmits %d <= small %d", largeRetx, smallRetx)
	}
}

func TestQoSLowSlower(t *testing.T) {
	n := testNetwork(t)
	src, dst := pairOfKind(n.Topology(), "cross-podset")
	r := rng(20)
	hHigh := metrics.NewLatencyHistogram()
	hLow := metrics.NewLatencyHistogram()
	for i := 0; i < 8000; i++ {
		h := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(46000 + i%1000), DstPort: 9000, QoS: probe.QoSHigh}, r)
		l := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(47000 + i%1000), DstPort: 9000, QoS: probe.QoSLow}, r)
		if h.Err == "" {
			hHigh.Observe(h.RTT)
		}
		if l.Err == "" {
			hLow.Observe(l.RTT)
		}
	}
	// Low priority sees deeper queues: higher P90 (the median is dominated
	// by fixed host/switch costs that QoS does not change).
	if hLow.Percentile(0.9) <= hHigh.Percentile(0.9) {
		t.Fatalf("QoS low P90 %v <= high P90 %v", hLow.Percentile(0.9), hHigh.Percentile(0.9))
	}
}

func TestLoadFunctionModulatesLatency(t *testing.T) {
	top := testTopology(t)
	prof := DC1Profile()
	peak := time.Unix(1750000000, 0)
	prof.Load = func(tm time.Time) float64 {
		if tm.Equal(peak) {
			return 6
		}
		return 1
	}
	n, err := New(top, Config{Profiles: []Profile{prof, prof}})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pairOfKind(top, "cross-podset")
	r := rng(21)
	quiet := metrics.NewLatencyHistogram()
	busy := metrics.NewLatencyHistogram()
	for i := 0; i < 8000; i++ {
		q := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(48000 + i%1000), DstPort: 9000, Start: peak.Add(time.Hour)}, r)
		b := n.Probe(ProbeSpec{Src: src, Dst: dst, SrcPort: uint16(48000 + i%1000), DstPort: 9000, Start: peak}, r)
		if q.Err == "" {
			quiet.Observe(q.RTT)
		}
		if b.Err == "" {
			busy.Observe(b.RTT)
		}
	}
	if busy.Percentile(0.99) <= quiet.Percentile(0.99) {
		t.Fatalf("busy P99 %v <= quiet P99 %v", busy.Percentile(0.99), quiet.Percentile(0.99))
	}
}

func TestTraceProbeWalksPath(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "cross-podset")
	hops, _ := n.Path(src, dst, 50123, 9000)
	r := rng(22)
	for ttl := 1; ttl <= len(hops); ttl++ {
		// Retry a few times in case the probe randomly drops.
		var hop topology.SwitchID
		var ok bool
		for try := 0; try < 10; try++ {
			hop, ok = n.TraceProbe(src, dst, 50123, 9000, ttl, r)
			if ok {
				break
			}
		}
		if !ok {
			t.Fatalf("ttl %d: no answer after retries", ttl)
		}
		if hop != hops[ttl-1] {
			t.Fatalf("ttl %d answered by %v, want %v", ttl, hop, hops[ttl-1])
		}
	}
	// Beyond the path: destination host answers.
	if hop, ok := n.TraceProbe(src, dst, 50123, 9000, len(hops)+1, r); !ok || hop != -1 {
		t.Fatalf("ttl beyond path: hop %v ok %v", hop, ok)
	}
}

func TestTraceProbeLocalizesLossySpine(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	src, dst := pairOfKind(top, "cross-podset")
	hops, _ := n.Path(src, dst, 50200, 9000)
	spineIdx := 2 // position of spine in cross-podset path
	n.SetRandomDrop(hops[spineIdx], 0.3, true)
	r := rng(23)
	count := 2000
	lossAt := make([]float64, len(hops))
	for ttl := 1; ttl <= len(hops); ttl++ {
		lost := 0
		for i := 0; i < count; i++ {
			if _, ok := n.TraceProbe(src, dst, 50200, 9000, ttl, r); !ok {
				lost++
			}
		}
		lossAt[ttl-1] = float64(lost) / float64(count)
	}
	// Loss should be negligible before the spine and ~30%+ from it onward.
	if lossAt[spineIdx-1] > 0.05 {
		t.Fatalf("loss before spine = %v", lossAt[spineIdx-1])
	}
	if lossAt[spineIdx] < 0.2 {
		t.Fatalf("loss at spine = %v, want >= 0.2", lossAt[spineIdx])
	}
}

func TestTraceProbeInvalidTTL(t *testing.T) {
	n := testNetwork(t)
	src, dst := pairOfKind(n.Topology(), "intra-pod")
	if _, ok := n.TraceProbe(src, dst, 0, 0, 0, rng(24)); ok {
		t.Fatal("ttl 0 answered")
	}
}

func TestFaultySwitchesListing(t *testing.T) {
	n := testNetwork(t)
	top := n.Topology()
	if len(n.FaultySwitches()) != 0 {
		t.Fatal("new network has faults")
	}
	a, b := top.DCs[0].Spines[0], top.ToROf(0)
	n.SetRandomDrop(a, 0.1, false)
	n.AddBlackhole(b, Blackhole{MatchFraction: 0.1})
	got := n.FaultySwitches()
	if len(got) != 2 {
		t.Fatalf("FaultySwitches = %v", got)
	}
}
