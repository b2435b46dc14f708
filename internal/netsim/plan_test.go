package netsim

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// diffNetwork builds a two-DC fabric with a time-varying load profile so
// the differential test exercises the load-dependent rng draws too.
func diffNetwork(t testing.TB) *Network {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p1 := DC1Profile()
	p1.Load = func(ts time.Time) float64 {
		return 1 + 0.5*math.Sin(float64(ts.Unix()%3600)/3600*2*math.Pi)
	}
	n, err := New(top, Config{Profiles: []Profile{p1, DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// diffPairs covers every route shape: same pod, same podset, cross
// podset, cross DC, and both directions.
func diffPairs(n *Network) [][2]topology.ServerID {
	top := n.Topology()
	pod0 := &top.DCs[0].Podsets[0].Pods[0]
	pod1 := &top.DCs[0].Podsets[0].Pods[1]
	pod2 := &top.DCs[0].Podsets[1].Pods[0]
	podB := &top.DCs[1].Podsets[0].Pods[0]
	return [][2]topology.ServerID{
		{pod0.Servers[0], pod0.Servers[1]}, // same pod
		{pod0.Servers[0], pod1.Servers[2]}, // same podset
		{pod0.Servers[1], pod2.Servers[0]}, // cross podset
		{pod2.Servers[0], pod0.Servers[1]}, // cross podset, reversed
		{pod0.Servers[0], podB.Servers[0]}, // cross DC
		{podB.Servers[3], pod2.Servers[2]}, // cross DC, reversed
	}
}

// TestProbePlanDifferential pins the plan-cached Probe (and PairProber)
// to the retained reference path: byte-identical Results and identical
// rng consumption, across every route shape, spec variation, and live
// fault injection mid-run. The probers are created once up front, so the
// test also proves epoch invalidation across fault-table swaps.
func TestProbePlanDifferential(t *testing.T) {
	n := diffNetwork(t)
	top := n.Topology()
	pairs := diffPairs(n)

	probers := make([]*PairProber, len(pairs))
	for i, pr := range pairs {
		probers[i] = n.PairProber(pr[0], pr[1])
	}

	rngCached := rand.New(rand.NewPCG(11, 13))
	rngRef := rand.New(rand.NewPCG(11, 13))
	rngProber := rand.New(rand.NewPCG(11, 13))

	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	leaf00 := top.DCs[0].Podsets[0].Leaves[0]
	spine0 := top.DCs[0].Spines[1]
	torOfPair2 := top.ToROf(pairs[2][0])

	srv0, srv2 := top.Server(pairs[0][0]), top.Server(pairs[2][1])
	steps := []struct {
		name   string
		mutate func()
	}{
		{"healthy", func() {}},
		{"blackhole-fraction", func() {
			n.AddBlackhole(torOfPair2, Blackhole{MatchFraction: 0.5, IncludePorts: true})
		}},
		{"blackhole-pair", func() {
			n.AddBlackhole(leaf00, Blackhole{Pairs: []AddrPair{{Src: srv0.Addr, Dst: srv2.Addr}}})
		}},
		{"random-drop", func() { n.SetRandomDrop(spine0, 0.2, false) }},
		{"fcs-error", func() { n.SetFCSError(leaf00, 1e-5) }},
		{"extra-latency", func() { n.SetExtraLatency(leaf00, 300*time.Microsecond) }},
		{"tier-degraded", func() {
			n.SetTierDegraded(0, topology.TierSpine, Degradation{DropProb: 0.05, ExtraLatencyMean: 200 * time.Microsecond})
		}},
		{"podset-degraded", func() {
			n.SetPodsetDegraded(0, 0, Degradation{DropProb: 0.02, ExtraLatencyMean: 150 * time.Microsecond})
			n.SetPodsetDegraded(0, 1, Degradation{DropProb: 0.01})
		}},
		{"leaf-isolated", func() { n.IsolateSwitch(top.DCs[0].Podsets[0].Leaves[1]) }},
		{"podset-unreachable", func() {
			// Isolate every leaf of DC1 podset 1: cross-podset pairs into
			// it lose their route entirely.
			for _, l := range top.DCs[0].Podsets[1].Leaves {
				n.IsolateSwitch(l)
			}
		}},
		{"podset-down", func() { n.SetPodsetDown(0, 1, true) }},
		{"repair", func() {
			n.SetPodsetDown(0, 1, false)
			for _, l := range top.DCs[0].Podsets[1].Leaves {
				n.UnisolateSwitch(l)
			}
			n.ReloadSwitch(torOfPair2)
			n.ReplaceSwitch(spine0)
			n.SetTierDegraded(0, topology.TierSpine, Degradation{})
		}},
	}

	protos := []probe.Proto{probe.TCP, probe.HTTP}
	for _, step := range steps {
		step.mutate()
		for pi, pr := range pairs {
			for i := 0; i < 200; i++ {
				spec := ProbeSpec{
					Src: pr[0], Dst: pr[1],
					SrcPort: uint16(33000 + (pi*977+i*31)%28000),
					DstPort: uint16(8000 + i%3),
					Proto:   protos[i%2],
					Start:   t0.Add(time.Duration(i) * 17 * time.Second),
				}
				if i%3 == 1 {
					spec.QoS = probe.QoSLow
				}
				if i%4 == 2 {
					spec.PayloadLen = 512
				}
				ref := n.probeReference(spec, rngRef)
				got := n.Probe(spec, rngCached)
				if got != ref {
					t.Fatalf("step %s pair %d probe %d: cached %+v != reference %+v", step.name, pi, i, got, ref)
				}
				viaProber := probers[pi].Probe(&spec, rngProber)
				if viaProber != ref {
					t.Fatalf("step %s pair %d probe %d: prober %+v != reference %+v", step.name, pi, i, viaProber, ref)
				}
			}
		}
		// Identical rng consumption: after identical draw sequences the
		// next value from each stream must agree.
		want := rngRef.Uint64()
		if g := rngCached.Uint64(); g != want {
			t.Fatalf("step %s: cached path consumed different rng draws", step.name)
		}
		if g := rngProber.Uint64(); g != want {
			t.Fatalf("step %s: prober path consumed different rng draws", step.name)
		}
	}
}

// TestProbePlanIsolatedToRUnreachable pins the plan path on the
// structural no-route case (a pair's own ToR isolated).
func TestProbePlanIsolatedToRUnreachable(t *testing.T) {
	n := diffNetwork(t)
	pairs := diffPairs(n)
	n.IsolateSwitch(n.Topology().ToROf(pairs[1][0]))
	rngA := rand.New(rand.NewPCG(5, 6))
	rngB := rand.New(rand.NewPCG(5, 6))
	spec := ProbeSpec{Src: pairs[1][0], Dst: pairs[1][1], SrcPort: 40000, DstPort: 8765}
	got, ref := n.Probe(spec, rngA), n.probeReference(spec, rngB)
	if got != ref || got.Err != ErrUnreachable {
		t.Fatalf("cached %+v reference %+v", got, ref)
	}
}

// TestProbePlanConcurrentFaultInjection hammers the epoch-keyed cache:
// prober goroutines run cached probes while the main goroutine swaps the
// fault table continuously. Run under -race in CI tier 2; correctness
// here is "no race, no panic, plausible results".
func TestProbePlanConcurrentFaultInjection(t *testing.T) {
	n := diffNetwork(t)
	top := n.Topology()
	pairs := diffPairs(n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			pr := n.PairProber(pairs[w%len(pairs)][0], pairs[w%len(pairs)][1])
			var i int
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				spec := ProbeSpec{
					Src: pairs[w%len(pairs)][0], Dst: pairs[w%len(pairs)][1],
					SrcPort: uint16(33000 + i%28000), DstPort: 8765,
				}
				var res Result
				if i%2 == 0 {
					res = n.Probe(spec, rng)
				} else {
					res = pr.Probe(&spec, rng)
				}
				if res.Err == "" && res.RTT <= 0 {
					t.Errorf("non-positive RTT on success: %+v", res)
					return
				}
			}
		}(w)
	}
	leaf := top.DCs[0].Podsets[0].Leaves[0]
	spine := top.DCs[0].Spines[0]
	for i := 0; i < 300; i++ {
		n.SetRandomDrop(spine, float64(i%5)*0.01, false)
		n.SetExtraLatency(leaf, time.Duration(i%3)*100*time.Microsecond)
		n.IsolateSwitch(leaf)
		n.UnisolateSwitch(leaf)
		n.SetPodsetDown(0, 1, i%2 == 0)
		n.AddBlackhole(leaf, Blackhole{MatchFraction: 0.01})
		n.ReloadSwitch(leaf)
	}
	n.SetPodsetDown(0, 1, false)
	close(stop)
	wg.Wait()
}

// TestProbePlanZeroAlloc guards the steady-state hot path: with a warm
// plan cache both Probe and PairProber must not allocate. Wired into CI
// tier 3 via the ZeroAlloc name filter.
func TestProbePlanZeroAlloc(t *testing.T) {
	n := diffNetwork(t)
	pairs := diffPairs(n)
	rng := rand.New(rand.NewPCG(21, 22))
	spec := ProbeSpec{Src: pairs[2][0], Dst: pairs[2][1], SrcPort: 40000, DstPort: 8765}
	n.Probe(spec, rng) // warm the shared cache
	if avg := testing.AllocsPerRun(200, func() {
		spec.SrcPort++
		n.Probe(spec, rng)
	}); avg != 0 {
		t.Errorf("Probe allocates %.2f/op on the steady-state path", avg)
	}
	pr := n.PairProber(pairs[4][0], pairs[4][1])
	spec = ProbeSpec{Src: pairs[4][0], Dst: pairs[4][1], SrcPort: 40000, DstPort: 8765}
	pr.Probe(&spec, rng)
	if avg := testing.AllocsPerRun(200, func() {
		spec.SrcPort++
		pr.Probe(&spec, rng)
	}); avg != 0 {
		t.Errorf("PairProber.Probe allocates %.2f/op on the steady-state path", avg)
	}
}
