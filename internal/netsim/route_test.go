package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"pingmesh/internal/topology"
)

// TestPlanRoutesMatchResolve pins every route the probe plan answers to
// resolve, the from-scratch reference, over every server pair and a spread
// of port pairs, after each kind of fault mutation: AppendPath, the run
// form AppendPaths, Path, and the hop each TTL of TraceProbe answers. The
// fabric is lossless, so a trace answers unless a black-hole on the hops it
// crosses matches or a podset is down. The mutations build on each other;
// ReplaceSwitch is the one that rewrites a whole fault entry.
func TestPlanRoutesMatchResolve(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(top, Config{Profiles: []Profile{{Name: "lossless"}}})
	if err != nil {
		t.Fatal(err)
	}
	ports := make([][2]uint16, 8)
	for i := range ports {
		ports[i] = [2]uint16{uint16(32768 + 4099*i), uint16(80 + 8685*(i%2))}
	}
	dc0, dc1 := &top.DCs[0], &top.DCs[1]
	steps := []struct {
		name string
		do   func()
	}{
		{"fresh", func() {}},
		{"isolate a ToR and a leaf", func() {
			n.IsolateSwitch(dc1.Podsets[0].Pods[2].ToR)
			n.IsolateSwitch(dc0.Podsets[0].Leaves[1])
		}},
		{"isolate a spine", func() { n.IsolateSwitch(dc1.Spines[2]) }},
		{"unisolate the ToR and the leaf", func() {
			n.UnisolateSwitch(dc1.Podsets[0].Pods[2].ToR)
			n.UnisolateSwitch(dc0.Podsets[0].Leaves[1])
		}},
		{"reload", func() {
			n.SetRandomDrop(dc0.Spines[1], 0.5, false)
			n.ReloadSwitch(dc0.Spines[1])
		}},
		{"replace", func() {
			n.SetRandomDrop(dc0.Spines[3], 0.5, true)
			n.ReplaceSwitch(dc0.Spines[3])
			n.SetRandomDrop(dc1.Podsets[1].Leaves[0], 0.5, true)
			n.ReplaceSwitch(dc1.Podsets[1].Leaves[0])
		}},
		{"black-hole", func() {
			n.AddBlackhole(dc0.Podsets[1].Leaves[0], Blackhole{MatchFraction: 0.3, IncludePorts: true})
		}},
		{"podset down", func() { n.SetPodsetDown(0, 1, true) }},
		{"podset up", func() { n.SetPodsetDown(0, 1, false) }},
	}
	rng := rand.New(rand.NewPCG(5, 8))
	servers := top.Servers()
	var buf, run []topology.SwitchID
	for _, st := range steps {
		st.do()
		ft := n.faults.Load()
		routes, noRoute, holed := 0, 0, 0
		for _, a := range servers {
			for _, b := range servers {
				src, dst := a.ID, b.ID
				var h int
				var runOK bool
				run, h, runOK = n.AppendPaths(run[:0], src, dst, ports)
				for i, p := range ports {
					want := n.resolve(ft, src, dst, p[0], p[1])
					got, ok := n.AppendPath(buf[:0], src, dst, p[0], p[1])
					buf = got
					path, pathOK := n.Path(src, dst, p[0], p[1])
					if ok != want.ok || pathOK != want.ok || runOK != want.ok {
						t.Fatalf("%s: %s->%s ports %v: ok AppendPath %v Path %v AppendPaths %v, resolve %v",
							st.name, a.Name, b.Name, p, ok, pathOK, runOK, want.ok)
					}
					if !want.ok {
						noRoute++
						continue
					}
					routes++
					hops := want.Hops()
					if !slices.Equal(got, hops) || !slices.Equal(path, hops) || h != len(hops) ||
						len(run) != len(ports)*h || !slices.Equal(run[i*h:(i+1)*h], hops) {
						t.Fatalf("%s: %s->%s ports %v: AppendPath %v, Path %v, AppendPaths %v (len %d), resolve %v",
							st.name, a.Name, b.Name, p, got, path, run, h, hops)
					}
					down := ft.podsetDown[psKey{a.DC, a.Podset}] || ft.podsetDown[psKey{b.DC, b.Podset}]
					for ttl := 1; ttl <= len(hops)+1; ttl++ {
						wantHop, wantOK := topology.SwitchID(-1), true
						if ttl <= len(hops) {
							wantHop = hops[ttl-1]
						}
						reach := min(ttl, len(hops))
						prefix := route{ok: true}
						for _, sw := range hops[:reach] {
							prefix.add(sw)
						}
						if n.blackholed(ft, &prefix, a.Addr, b.Addr, p[0], p[1]) {
							wantHop, wantOK = -1, false
							holed++
						}
						if down {
							wantHop, wantOK = -1, false
						}
						if hop, ok := n.TraceProbe(src, dst, p[0], p[1], ttl, rng); hop != wantHop || ok != wantOK {
							t.Fatalf("%s: %s->%s ports %v ttl %d: TraceProbe (%v, %v), want (%v, %v) (route %v)",
								st.name, a.Name, b.Name, p, ttl, hop, ok, wantHop, wantOK, hops)
						}
					}
				}
			}
		}
		if routes == 0 || (st.name == "isolate a ToR and a leaf" && noRoute == 0) {
			t.Fatalf("%s: %d routed and %d unroutable tuples", st.name, routes, noRoute)
		}
		if st.name == "black-hole" && holed == 0 {
			t.Fatalf("black-hole: no trace crossed a matching rule")
		}
	}
}
