package pingmesh

// Integration tests exercising the full stack together: controller (HTTP)
// -> agents (real scheduling loops on the simulated clock, probing the
// simulated fabric) -> Cosmos uploads -> SCOPE/DSA analysis -> report
// database, with the agents' perf counters read beside it. Unlike the fleet
// runner used by the experiments, these tests run the real agent goroutines.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"net"
	"net/netip"

	"pingmesh/internal/agent"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/dsa"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netlib"
	"pingmesh/internal/netsim"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/simclock"
	"pingmesh/internal/slb"
	"pingmesh/internal/topology"
)

func TestIntegrationAgentsToAnalysis(t *testing.T) {
	// Two minutes before a window boundary: agents upload a window's
	// sketches at the first flush after it closes.
	epoch := time.Date(2026, 7, 1, 0, 8, 0, 0, time.UTC)
	clock := simclock.NewSim(epoch)

	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}

	// Controller behind real HTTP.
	ctrl, err := controller.New(top, core.DefaultGeneratorConfig(), clock)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	// Cosmos store + per-agent upload clients.
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}

	// One real agent per server, probing the simulated fabric.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var agents []*agent.Agent
	for _, s := range top.Servers() {
		a, err := agent.New(agent.Config{
			ServerName: s.Name,
			SourceAddr: s.Addr,
			Controller: &controller.Client{BaseURL: srv.URL},
			Prober:     &fleet.SimProber{Net: net, Src: s.ID, Clock: clock, Seed: uint64(s.ID) + 1},
			Uploader:   &cosmos.Client{Store: store, Stream: cosmos.DailyStream("pingmesh"), Clock: clock},
			Clock:      clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		go a.Run(ctx)
	}

	// Wait for every agent to fetch its pinglist over HTTP.
	waitUntil(t, func() bool {
		for _, a := range agents {
			if a.PeerCount() == 0 {
				return false
			}
		}
		return true
	}, "agents fetched pinglists")

	// Drive 3 simulated minutes in steps, letting the schedulers drain.
	for i := 0; i < 18; i++ {
		clock.Advance(10 * time.Second)
		time.Sleep(3 * time.Millisecond)
	}
	waitUntil(t, func() bool {
		return len(store.Streams("pingmesh/")) > 0
	}, "agents uploaded to cosmos")

	// Analysis over the uploaded records: the whole windows the three
	// probed minutes fall in.
	pipe, err := dsa.New(dsa.Config{Store: store, Top: top, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(epoch.Truncate(probe.Window), clock.Now().Truncate(probe.Window).Add(probe.Window)); err != nil {
		t.Fatal(err)
	}
	rows, err := pipe.DB().Query(dsa.TableSLA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("sla rows = %d", len(rows))
	}
	probes := rows[0]["probes"].(int64)
	if probes < int64(len(agents)) {
		t.Fatalf("analyzed %d probes from %d agents", probes, len(agents))
	}
	p50 := rows[0]["p50"].(time.Duration)
	if p50 < 50*time.Microsecond || p50 > 5*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}

	// The agents' registries — what their PMT1 reports ship — counted every
	// probe the analysis saw.
	var counted int64
	for _, a := range agents {
		counted += a.Metrics().Snapshot().Counters["agent.probes_total"]
	}
	if counted < probes {
		t.Fatalf("agents counted %d probes, analysis saw %d", counted, probes)
	}

	// The emergency stop: clear the controller, agents fail closed on
	// their next poll (§3.4.2).
	ctrl.Clear()
	clock.Advance(5 * time.Minute) // fetch interval
	waitUntil(t, func() bool {
		for _, a := range agents {
			if !a.FailedClosed() {
				return false
			}
		}
		return true
	}, "fleet failed closed after pinglist removal")
}

func TestIntegrationWatchdogsOverPipeline(t *testing.T) {
	// The §3.5 watchdog story: components are watched — pinglists
	// generated? jobs running? Here the watchdog service checks the
	// controller and job manager and reports into the Device Manager.
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(epoch)
	top := topology.SmallTestbed()
	ctrl, err := controller.New(top, core.DefaultGeneratorConfig(), clock)
	if err != nil {
		t.Fatal(err)
	}
	jm := scope.NewJobManager(clock)
	defer jm.StopAll()

	dm := autopilot.NewDeviceManager()
	ws := autopilot.NewWatchdogService(clock, time.Minute, dm)
	ws.Register(autopilot.Watchdog{
		Name:   "pinglists-generated",
		Device: "controller",
		Check: func() error {
			if ctrl.PinglistCount() == 0 {
				return errContr
			}
			return nil
		},
	})
	ws.RunOnce()
	if dm.State("controller") != autopilot.Healthy {
		t.Fatal("healthy controller flagged")
	}
	ctrl.Clear()
	ws.RunOnce()
	ws.RunOnce()
	if dm.State("controller") != autopilot.Failed {
		t.Fatalf("controller state = %v after losing pinglists", dm.State("controller"))
	}
	if err := ctrl.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	ws.RunOnce()
	if dm.State("controller") != autopilot.Healthy {
		t.Fatal("controller did not recover")
	}
}

var errContr = &pinglistsMissingError{}

type pinglistsMissingError struct{}

func (*pinglistsMissingError) Error() string { return "no pinglists generated" }

func TestIntegrationMetricsRoundTripThroughCosmos(t *testing.T) {
	// Records written through the cosmos client parse back identically
	// through a scope job — the durability contract agents depend on.
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	top := topology.SmallTestbed()
	client := &cosmos.Client{Store: store, Stream: cosmos.DailyStream("pingmesh"),
		Clock: simclock.NewSim(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))}

	var want []probe.Record
	for i := 0; i < 500; i++ {
		r := probe.Record{
			Start: time.Date(2026, 7, 1, 0, 0, i%60, 0, time.UTC),
			Src:   top.Server(topology.ServerID(i % 10)).Addr,
			Dst:   top.Server(topology.ServerID((i + 1) % 10)).Addr,
			RTT:   time.Duration(200+i) * time.Microsecond,
		}
		want = append(want, r)
		if err := client.Upload(context.Background(), probe.EncodeBatch([]probe.Record{r})); err != nil {
			t.Fatal(err)
		}
	}
	res, err := scope.Run(scope.Job{Name: "roundtrip", Source: scope.Source{Store: store, StreamPrefix: "pingmesh/"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != uint64(len(want)) || res.ParseErrors != 0 {
		t.Fatalf("records=%d parseErrors=%d", res.Records, res.ParseErrors)
	}
	if res.Get("").Summary().Count != uint64(len(want)) {
		t.Fatal("aggregate count mismatch")
	}
}

func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting: " + msg)
}

func TestIntegrationVIPMonitoring(t *testing.T) {
	// The §6.2 VIP monitoring extension: selected servers probe a
	// load-balanced VIP so the availability of the virtualized address
	// itself is tracked. Here a real SLB VIP fronts two real probe
	// servers; the agent probes it through actual sockets, then the
	// backends die and the failures surface in the agent's counters.
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(epoch)

	b1, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	lb, err := slb.New("127.0.0.1:0", []string{b1.Addr().String(), b2.Addr().String()},
		slb.Options{HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	vipPort := uint16(lb.Addr().(*net.TCPAddr).Port)

	list := &pinglist.File{
		Server:  "vip-prober",
		Version: "v1",
		Peers: []pinglist.Peer{{
			Addr:  "127.0.0.1",
			Port:  vipPort,
			Class: probe.IntraDC.String(),
			Proto: probe.TCP.String(),
			QoS:   probe.QoSHigh.String(),
			// VIP probes carry a payload: the SLB accepts the TCP
			// connection itself, so only an echoed payload proves a DIP
			// behind the VIP actually answered.
			PayloadLen:  64,
			IntervalSec: 10,
		}},
	}
	a, err := agent.New(agent.Config{
		ServerName: "vip-prober",
		SourceAddr: netip.MustParseAddr("127.0.0.1"),
		Controller: staticPinglist{list},
		Prober:     agent.NewRealProber(2 * time.Second),
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 1 }, "pinglist applied")

	// A few probes through the healthy VIP.
	for i := 0; i < 3; i++ {
		clock.Advance(10 * time.Second)
		time.Sleep(20 * time.Millisecond) // real socket round trip
	}
	waitUntil(t, func() bool {
		return a.Metrics().Snapshot().Counters["agent.probes_ok"] >= 2
	}, "probes through VIP succeeded")

	// The VIP dies entirely (both DIPs down): probes must start failing.
	b1.Close()
	b2.Close()
	okBefore := a.Metrics().Snapshot().Counters["agent.probes_ok"]
	waitUntil(t, func() bool { return len(lb.HealthyBackends()) == 0 }, "SLB noticed backend death")
	for i := 0; i < 4; i++ {
		clock.Advance(10 * time.Second)
		time.Sleep(50 * time.Millisecond)
	}
	waitUntil(t, func() bool {
		return a.Metrics().Snapshot().Counters["agent.probes_failed"] >= 1
	}, "VIP unavailability recorded")
	if got := a.Metrics().Snapshot().Counters["agent.probes_ok"]; got > okBefore+1 {
		t.Fatalf("probes kept succeeding after VIP death: %d -> %d", okBefore, got)
	}
}

// staticPinglist hands the agent a fixed pinglist.
type staticPinglist struct{ f *pinglist.File }

func (s staticPinglist) Fetch(ctx context.Context, server string) (*pinglist.File, error) {
	return s.f, nil
}
