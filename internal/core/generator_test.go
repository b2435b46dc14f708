package core

import (
	"testing"
	"testing/quick"
	"time"

	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

var genTime = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func twoDCs(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func generate(t *testing.T, top *topology.Topology, cfg GeneratorConfig) map[topology.ServerID]*pinglist.File {
	t.Helper()
	lists, err := Generate(top, cfg, "v1", genTime)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return lists
}

// classPeers filters a file's peers by class.
func classPeers(f *pinglist.File, class probe.Class) []pinglist.Peer {
	var out []pinglist.Peer
	for _, p := range f.Peers {
		if p.Class == class.String() {
			out = append(out, p)
		}
	}
	return out
}

func TestGenerateCoversAllServers(t *testing.T) {
	top := twoDCs(t)
	lists := generate(t, top, DefaultGeneratorConfig())
	if len(lists) != top.NumServers() {
		t.Fatalf("generated %d lists, want %d", len(lists), top.NumServers())
	}
	for id, f := range lists {
		if f.Server != top.Server(id).Name {
			t.Fatalf("list for %v addressed to %q", id, f.Server)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("list for %v invalid: %v", id, err)
		}
		if !f.Generated.Equal(genTime) || f.Version != "v1" {
			t.Fatalf("list metadata wrong: %+v", f)
		}
	}
}

func TestIntraPodCompleteGraph(t *testing.T) {
	top := twoDCs(t)
	lists := generate(t, top, DefaultGeneratorConfig())
	for _, s := range top.Servers() {
		pod := top.PodOf(s.ID)
		peers := classPeers(lists[s.ID], probe.IntraPod)
		if len(peers) != len(pod.Servers)-1 {
			t.Fatalf("server %s has %d intra-pod peers, want %d", s.Name, len(peers), len(pod.Servers)-1)
		}
		want := map[string]bool{}
		for _, id := range pod.Servers {
			if id != s.ID {
				want[top.Server(id).Addr.String()] = true
			}
		}
		for _, p := range peers {
			if !want[p.Addr] {
				t.Fatalf("server %s pings %s which is not a pod mate", s.Name, p.Addr)
			}
			if p.Addr == s.Addr.String() {
				t.Fatalf("server %s pings itself", s.Name)
			}
		}
	}
}

func TestIntraDCRankPairing(t *testing.T) {
	top := twoDCs(t)
	lists := generate(t, top, DefaultGeneratorConfig())
	for _, s := range top.Servers() {
		peers := classPeers(lists[s.ID], probe.IntraDC)
		// DC1 has 6 ToRs, DC2 has 4; every rack has a server at every rank,
		// so the peer count is #ToRs-1.
		wantCount := len(top.ToRs(s.DC)) - 1
		if len(peers) != wantCount {
			t.Fatalf("server %s has %d intra-DC peers, want %d", s.Name, len(peers), wantCount)
		}
		for _, p := range peers {
			id, ok := top.ServerByAddrString(p.Addr)
			if !ok {
				t.Fatalf("peer %s not in topology", p.Addr)
			}
			peer := top.Server(id)
			if peer.DC != s.DC {
				t.Fatalf("intra-DC peer %s in different DC", peer.Name)
			}
			if peer.Rank != s.Rank {
				t.Fatalf("server %s (rank %d) paired with %s (rank %d)", s.Name, s.Rank, peer.Name, peer.Rank)
			}
			if top.SamePod(s.ID, id) {
				t.Fatalf("intra-DC peer %s shares the pod", peer.Name)
			}
		}
	}
}

func TestInterDCSelection(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.InterDCServersPerPodset = 2
	lists := generate(t, top, cfg)
	selected := 0
	for _, s := range top.Servers() {
		peers := classPeers(lists[s.ID], probe.InterDC)
		if len(peers) == 0 {
			continue
		}
		selected++
		for _, p := range peers {
			id, ok := top.ServerByAddrString(p.Addr)
			if !ok {
				t.Fatalf("inter-DC peer %s not in topology", p.Addr)
			}
			if top.Server(id).DC == s.DC {
				t.Fatalf("inter-DC peer %s in same DC", p.Addr)
			}
		}
	}
	// 2 podsets/DC * 2 DCs * <=2 servers each.
	if selected == 0 || selected > 8 {
		t.Fatalf("%d servers participate in inter-DC, want 1..8", selected)
	}
}

func TestSymmetryServersInEachOthersLists(t *testing.T) {
	top := twoDCs(t)
	lists := generate(t, top, DefaultGeneratorConfig())
	// Intra-pod and intra-DC graphs are symmetric: if A pings B, B pings A.
	for _, s := range top.Servers() {
		for _, p := range lists[s.ID].Peers {
			cls, _ := probe.ParseClass(p.Class)
			if cls == probe.InterDC {
				continue
			}
			id, ok := top.ServerByAddrString(p.Addr)
			if !ok {
				continue
			}
			back := false
			for _, q := range lists[id].Peers {
				if q.Addr == s.Addr.String() {
					back = true
					break
				}
			}
			if !back {
				t.Fatalf("%s pings %s but not vice versa", s.Name, top.Server(id).Name)
			}
		}
	}
}

func TestIntervalsClampedToMinimum(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.IntraPodInterval = time.Second // below the hard floor
	lists := generate(t, top, cfg)
	for _, f := range lists {
		for _, p := range f.Peers {
			if p.Interval() < pinglist.MinProbeInterval {
				t.Fatalf("peer interval %v below MinProbeInterval", p.Interval())
			}
		}
	}
}

func TestPayloadVariants(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.PayloadBytes = 1000
	lists := generate(t, top, cfg)
	f := lists[0]
	withPayload, without := 0, 0
	for _, p := range classPeers(f, probe.IntraDC) {
		if p.PayloadLen == 1000 {
			withPayload++
		} else if p.PayloadLen == 0 {
			without++
		}
	}
	if withPayload == 0 || withPayload != without {
		t.Fatalf("payload variants: %d with, %d without", withPayload, without)
	}
}

func TestLowQoSVariants(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.WithLowQoS = true
	cfg.LowQoSPort = 8766
	lists := generate(t, top, cfg)
	f := lists[0]
	low := 0
	for _, p := range f.Peers {
		if p.QoS == "low" {
			if p.Port != 8766 {
				t.Fatalf("low-QoS peer on port %d", p.Port)
			}
			low++
		}
	}
	if low == 0 {
		t.Fatal("no low-QoS peers generated")
	}
}

func TestHTTPVariantsIntraPodOnly(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.HTTPPort = 8080
	lists := generate(t, top, cfg)
	for _, f := range lists {
		for _, p := range f.Peers {
			if p.Proto == "http" && p.Class != "intra-pod" {
				t.Fatalf("HTTP probe with class %s", p.Class)
			}
		}
	}
	httpSeen := false
	for _, p := range lists[0].Peers {
		if p.Proto == "http" {
			httpSeen = true
		}
	}
	if !httpSeen {
		t.Fatal("no HTTP peers generated")
	}
}

func TestMaxPeersCap(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "BIG", Podsets: 4, PodsPerPodset: 10, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGeneratorConfig()
	cfg.MaxPeersPerServer = 80 // 40 ToRs would give 39 intra-DC peers; cap tighter
	lists, err := Generate(top, cfg, "v1", genTime)
	if err != nil {
		t.Fatal(err)
	}
	for id, f := range lists {
		if len(f.Peers) > cfg.MaxPeersPerServer {
			t.Fatalf("server %v has %d peers, cap %d", id, len(f.Peers), cfg.MaxPeersPerServer)
		}
	}
}

func TestVIPMonitoring(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.VIPs = []pinglist.Peer{{Addr: "192.0.2.10", Port: 80, Class: "intra-dc", Proto: "http", QoS: "high", IntervalSec: 30}}
	cfg.VIPProbersPerPodset = 1
	lists := generate(t, top, cfg)
	probers := 0
	for _, f := range lists {
		for _, p := range f.Peers {
			if p.Addr == "192.0.2.10" {
				probers++
			}
		}
	}
	// 1 prober per podset, 4 podsets total.
	if probers != 4 {
		t.Fatalf("VIP probed by %d servers, want 4", probers)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	top := twoDCs(t)
	cfg := DefaultGeneratorConfig()
	cfg.PayloadBytes = 800
	a, _ := Generate(top, cfg, "v1", genTime)
	b, _ := Generate(top, cfg, "v1", genTime)
	for id := range a {
		fa, _ := pinglist.Marshal(a[id])
		fb, _ := pinglist.Marshal(b[id])
		if string(fa) != string(fb) {
			t.Fatalf("generation not deterministic for server %v", id)
		}
	}
}

func TestGenerateFanOutProperty(t *testing.T) {
	// Property: for any topology, no server appears in its own pinglist and
	// every list validates.
	f := func(podsets, pods, servers uint8) bool {
		spec := topology.Spec{DCs: []topology.DCSpec{{
			Name:            "P",
			Podsets:         int(podsets%3) + 1,
			PodsPerPodset:   int(pods%4) + 1,
			ServersPerPod:   int(servers%5) + 1,
			LeavesPerPodset: 2,
			Spines:          2,
		}}}
		top, err := topology.Build(spec)
		if err != nil {
			return false
		}
		lists, err := Generate(top, DefaultGeneratorConfig(), "v", genTime)
		if err != nil {
			return false
		}
		for id, file := range lists {
			self := top.Server(id).Addr.String()
			if file.Validate() != nil {
				return false
			}
			for _, p := range file.Peers {
				if p.Addr == self {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
