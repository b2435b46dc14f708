package agent

import (
	"context"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/netlib"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

func TestRealProberTCP(t *testing.T) {
	srv, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewRealProber(5 * time.Second)
	out, err := p.Probe(context.Background(), Target{
		Addr:       netip.MustParseAddr("127.0.0.1"),
		Port:       srv.Port(),
		Proto:      probe.TCP,
		PayloadLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ConnectRTT <= 0 || out.PayloadRTT <= 0 || out.SrcPort == 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestRealProberHTTP(t *testing.T) {
	srv := httptest.NewServer(netlib.HTTPHandler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()
	host, portStr, _ := strings.Cut(addr, ":")
	port, _ := strconv.Atoi(portStr)
	p := NewRealProber(5 * time.Second)
	out, err := p.Probe(context.Background(), Target{
		Addr:       netip.MustParseAddr(host),
		Port:       uint16(port),
		Proto:      probe.HTTP,
		PayloadLen: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ConnectRTT <= 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestRealProberRejectsOversizedPayload(t *testing.T) {
	p := NewRealProber(time.Second)
	_, err := p.Probe(context.Background(), Target{
		Addr:       netip.MustParseAddr("127.0.0.1"),
		Port:       9,
		PayloadLen: netlib.MaxPayload + 1,
	})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

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
	out1, err := p.Probe(context.Background(), Target{Addr: top.Server(1).Addr, Port: 8765, Proto: probe.TCP})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := p.Probe(context.Background(), Target{Addr: top.Server(1).Addr, Port: 8765, Proto: probe.TCP})
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
	out, err := p.Probe(context.Background(), Target{Addr: top.Server(1).Addr, Port: 8080, Proto: probe.HTTP})
	if err != nil {
		t.Fatal(err)
	}
	if out.PayloadRTT == 0 {
		t.Fatal("HTTP probe returned no request/response timing")
	}
}

func TestSimProberUnknownHost(t *testing.T) {
	p, _ := simProberRig(t)
	_, err := p.Probe(context.Background(), Target{Addr: netip.MustParseAddr("192.0.2.99"), Port: 8765})
	if err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestSimProberCancelledContext(t *testing.T) {
	p, top := simProberRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Probe(ctx, Target{Addr: top.Server(1).Addr, Port: 8765}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestTruncateErr(t *testing.T) {
	long := strings.Repeat("x", 500)
	if got := truncateErr(errString(long)); len(got) != 120 {
		t.Fatalf("truncateErr len = %d", len(got))
	}
	if got := truncateErr(errString("short")); got != "short" {
		t.Fatalf("truncateErr = %q", got)
	}
}

type errString string

func (e errString) Error() string { return string(e) }
