package fleet

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

func simProberRig(t *testing.T) (*SimProber, *topology.Topology) {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	return &SimProber{Net: net, Src: 0, Clock: clock, Seed: 9}, top
}

func TestSimProberProbesPeers(t *testing.T) {
	p, top := simProberRig(t)
	out1, err := p.Probe(context.Background(), agent.Target{Addr: top.Server(1).Addr, Port: 8765, Proto: probe.TCP})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := p.Probe(context.Background(), agent.Target{Addr: top.Server(1).Addr, Port: 8765, Proto: probe.TCP})
	if err != nil {
		t.Fatal(err)
	}
	if out1.SrcPort == out2.SrcPort {
		t.Fatal("sim prober reused a source port")
	}
	if out1.ConnectRTT <= 0 {
		t.Fatalf("rtt = %v", out1.ConnectRTT)
	}
}

func TestSimProberHTTPAlwaysCarriesPayload(t *testing.T) {
	p, top := simProberRig(t)
	out, err := p.Probe(context.Background(), agent.Target{Addr: top.Server(1).Addr, Port: 8080, Proto: probe.HTTP})
	if err != nil {
		t.Fatal(err)
	}
	if out.PayloadRTT == 0 {
		t.Fatal("HTTP probe returned no request/response timing")
	}
}

func TestSimProberUnknownHost(t *testing.T) {
	p, _ := simProberRig(t)
	_, err := p.Probe(context.Background(), agent.Target{Addr: netip.MustParseAddr("192.0.2.99"), Port: 8765})
	if err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestSimProberCancelledContext(t *testing.T) {
	p, top := simProberRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Probe(ctx, agent.Target{Addr: top.Server(1).Addr, Port: 8765}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
