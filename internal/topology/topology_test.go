package topology

import (
	"bytes"
	"net/netip"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, spec Spec) *Topology {
	t.Helper()
	top, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return top
}

func singleDC(t *testing.T) *Topology {
	return mustBuild(t, Spec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
}

func TestBuildCounts(t *testing.T) {
	top := singleDC(t)
	if got, want := top.NumServers(), 2*3*4; got != want {
		t.Fatalf("NumServers = %d, want %d", got, want)
	}
	// Switches: 2 podsets * (2 leaves + 3 tors) + 4 spines.
	if got, want := top.NumSwitches(), 2*(2+3)+4; got != want {
		t.Fatalf("NumSwitches = %d, want %d", got, want)
	}
	if got := len(top.ToRs(0)); got != 6 {
		t.Fatalf("ToRs = %d, want 6", got)
	}
}

func TestBuildValidates(t *testing.T) {
	top := singleDC(t)
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty", Spec{}},
		{"noName", Spec{DCs: []DCSpec{{Podsets: 1, PodsPerPodset: 1, ServersPerPod: 1}}}},
		{"zeroServers", Spec{DCs: []DCSpec{{Name: "X", Podsets: 1, PodsPerPodset: 1}}}},
		{"multiPodNoLeaf", Spec{DCs: []DCSpec{{Name: "X", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 1}}}},
		{"multiPodsetNoSpine", Spec{DCs: []DCSpec{{Name: "X", Podsets: 2, PodsPerPodset: 1, ServersPerPod: 1, LeavesPerPodset: 1}}}},
		{"dupDC", Spec{DCs: []DCSpec{
			{Name: "X", Podsets: 1, PodsPerPodset: 1, ServersPerPod: 1},
			{Name: "X", Podsets: 1, PodsPerPodset: 1, ServersPerPod: 1},
		}}},
		{"tooBig", Spec{DCs: []DCSpec{{Name: "X", Podsets: 300, PodsPerPodset: 250, ServersPerPod: 10, Spines: 1, LeavesPerPodset: 1}}}},
	}
	for _, c := range cases {
		if _, err := Build(c.spec); err == nil {
			t.Errorf("%s: Build accepted invalid spec", c.name)
		}
	}
}

func TestServerLookups(t *testing.T) {
	top := singleDC(t)
	for _, s := range top.Servers() {
		byAddr, ok := top.ServerByAddr(s.Addr)
		if !ok || byAddr != s.ID {
			t.Fatalf("ServerByAddr(%v) = %v,%v", s.Addr, byAddr, ok)
		}
		byName, ok := top.ServerByName(s.Name)
		if !ok || byName != s.ID {
			t.Fatalf("ServerByName(%q) = %v,%v", s.Name, byName, ok)
		}
	}
	if _, ok := top.ServerByAddr(netip.MustParseAddr("192.168.0.1")); ok {
		t.Fatal("found nonexistent address")
	}
	if _, ok := top.ServerByName("nope"); ok {
		t.Fatal("found nonexistent name")
	}
}

// TestServerByAddrArithmetic pins the address plan ServerByAddr computes
// on: every server of a three-DC fleet, whose middle DC has more than 256
// servers so the host counter carries into the third octet, resolves
// without allocating, and no address outside the plan resolves.
func TestServerByAddrArithmetic(t *testing.T) {
	top := mustBuild(t, Spec{DCs: []DCSpec{
		{Name: "A", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 1},
		{Name: "B", Podsets: 2, PodsPerPodset: 5, ServersPerPod: 30, LeavesPerPodset: 2, Spines: 2},
		{Name: "C", Podsets: 1, PodsPerPodset: 1, ServersPerPod: 4},
	}})
	if n := len(top.DCs[1].Servers()); n <= 256 {
		t.Fatalf("DC B has %d servers, want more than 256", n)
	}
	servers := top.Servers()
	for _, s := range servers {
		if id, ok := top.ServerByAddr(s.Addr); !ok || id != s.ID {
			t.Fatalf("ServerByAddr(%v) = %v,%v, want %v", s.Addr, id, ok, s.ID)
		}
	}
	if b := servers[len(servers)-1].Addr.As4(); b != [4]byte{10, 2, 0, 4} {
		t.Fatalf("last server of DC C is %v, want 10.2.0.4", b)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range servers {
			top.ServerByAddr(servers[i].Addr)
		}
	}); allocs != 0 {
		t.Fatalf("ServerByAddr allocates %.0f times per fleet", allocs)
	}
	for _, addr := range []string{
		"10.1.0.0",             // host number 0 is no server
		"10.0.0.7",             // one past DC A's six servers
		"10.1.1.45",            // one past DC B's 300 servers
		"10.2.0.5",             // one past the last server of the last DC
		"10.3.0.1",             // a DC index past the last
		"11.0.0.1",             // outside 10/8
		"fd00::1",              // IPv6
		"::ffff:10.0.0.1",      // IPv4-in-IPv6 form of a real server's address
		"::ffff:10.0.0.1%eth0", // zoned (IPv4 addresses carry no zone)
	} {
		if id, ok := top.ServerByAddr(netip.MustParseAddr(addr)); ok {
			t.Errorf("ServerByAddr(%s) = %v, want no server", addr, id)
		}
	}
}

func TestRelations(t *testing.T) {
	top := SmallTestbed()
	var a, b ServerID // same pod
	pod := top.PodOf(0)
	a, b = pod.Servers[0], pod.Servers[1]
	if !top.SamePod(a, b) || !top.SamePodset(a, b) || !top.SameDC(a, b) {
		t.Fatal("same-pod servers misclassified")
	}
	// Different pod, same podset.
	ps := top.PodsetOf(0)
	c := ps.Pods[1].Servers[0]
	if top.SamePod(a, c) || !top.SamePodset(a, c) || !top.SameDC(a, c) {
		t.Fatal("same-podset servers misclassified")
	}
	// Different DC.
	d := top.DCs[1].Podsets[0].Pods[0].Servers[0]
	if top.SamePod(a, d) || top.SamePodset(a, d) || top.SameDC(a, d) {
		t.Fatal("cross-DC servers misclassified")
	}
}

func TestToROf(t *testing.T) {
	top := singleDC(t)
	for _, s := range top.Servers() {
		tor := top.Switch(top.ToROf(s.ID))
		if tor.Tier != TierToR {
			t.Fatalf("ToROf(%v) has tier %v", s.ID, tor.Tier)
		}
		if tor.DC != s.DC || tor.Podset != s.Podset || tor.Pod != s.Pod {
			t.Fatalf("ToR %s does not match server %s", tor.Name, s.Name)
		}
	}
}

func TestDCServers(t *testing.T) {
	top := SmallTestbed()
	for di := range top.DCs {
		ids := top.DCs[di].Servers()
		if len(ids) != 24 {
			t.Fatalf("DC %d has %d servers, want 24", di, len(ids))
		}
		for _, id := range ids {
			if top.Server(id).DC != di {
				t.Fatalf("server %v listed under wrong DC", id)
			}
		}
	}
}

func TestUniqueAddressesProperty(t *testing.T) {
	// Property: any in-range spec generates unique addresses and names and
	// passes Validate.
	f := func(p1, p2, s1 uint8) bool {
		spec := Spec{DCs: []DCSpec{{
			Name:            "A",
			Podsets:         int(p1%4) + 1,
			PodsPerPodset:   int(p2%5) + 1,
			ServersPerPod:   int(s1%6) + 1,
			LeavesPerPodset: 2,
			Spines:          2,
		}}}
		top, err := Build(spec)
		if err != nil {
			return false
		}
		return top.Validate() == nil && top.NumServers() == spec.DCs[0].Servers()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := Spec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 20, ServersPerPod: 40, LeavesPerPodset: 4, Spines: 16},
	}}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, spec); err != nil {
		t.Fatalf("WriteSpec: %v", err)
	}
	got, err := ReadSpec(&buf)
	if err != nil {
		t.Fatalf("ReadSpec: %v", err)
	}
	if len(got.DCs) != 1 || got.DCs[0] != spec.DCs[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadSpecRejectsUnknownFields(t *testing.T) {
	_, err := ReadSpec(strings.NewReader(`{"dcs":[],"bogus":1}`))
	if err == nil {
		t.Fatal("ReadSpec accepted unknown field")
	}
}

func TestTierString(t *testing.T) {
	if TierToR.String() != "tor" || TierLeaf.String() != "leaf" || TierSpine.String() != "spine" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() != "tier(9)" {
		t.Fatalf("unknown tier = %q", Tier(9).String())
	}
}

func TestNamesEncodeLocation(t *testing.T) {
	top := singleDC(t)
	s := top.Server(0)
	for _, part := range []string{"DC1", "ps00", "pod00", "s00"} {
		if !strings.Contains(s.Name, part) {
			t.Fatalf("server name %q missing %q", s.Name, part)
		}
	}
}

func TestExampleTopologyFileParses(t *testing.T) {
	// The committed example spec (examples/topology.json) that the cmd
	// tools reference must stay valid.
	f, err := os.Open("../../examples/topology.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := ReadSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	top, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if top.NumServers() != 3*4*4+2*4*4 {
		t.Fatalf("NumServers = %d", top.NumServers())
	}
}
