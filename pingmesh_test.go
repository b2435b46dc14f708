package pingmesh

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/dsa"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
)

func smallSpec() TopologySpec {
	return TopologySpec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}}
}

func TestSimTestbedEndToEnd(t *testing.T) {
	tb, err := NewSimTestbed(smallSpec(), SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	from := tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := tb.Clock.Now().Sub(from); got != time.Hour {
		t.Fatalf("clock advanced %v", got)
	}
	if err := tb.AnalyzeWindow(from, tb.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	rows, err := tb.DB().Query(dsa.TableSLA, reportdb.Where(func(r reportdb.Row) bool {
		return r["scope"] == "dc/DC1"
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("sla rows = %d", len(rows))
	}
	if rows[0]["probes"].(int64) == 0 {
		t.Fatal("no probes analyzed")
	}
	if len(tb.Alerts()) != 0 {
		t.Fatalf("healthy testbed alerted: %v", tb.Alerts())
	}
	if n := len(tb.Pinglists()); n != tb.Top.NumServers() {
		t.Fatalf("pinglists = %d", n)
	}
}

func TestSimTestbedHeatmapAndFaults(t *testing.T) {
	tb, err := NewSimTestbed(smallSpec(), SimOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tb.Net.SetPodsetDown(0, 1, true)
	from := tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := tb.Pipeline.RunHourly(from, tb.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	cls := tb.Pipeline.Heatmaps()["DC1"].Classification
	if cls.Pattern.String() != "podset-down" || cls.Podset != 1 {
		t.Fatalf("pattern = %v podset %d", cls.Pattern, cls.Podset)
	}
}

func TestSimTestbedRepairService(t *testing.T) {
	tb, err := NewSimTestbed(smallSpec(), SimOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := tb.Top.ToRs(0)[0]
	tb.Net.AddBlackhole(bad, netsim.Blackhole{MatchFraction: 0.4})
	rs := tb.NewRepairService()
	action := autopilot.RepairAction{Kind: autopilot.RepairReload, Device: tb.Top.Switch(bad).Name, Reason: "test"}
	if err := rs.Execute(action); err != nil {
		t.Fatal(err)
	}
	if tb.Net.SwitchFaulty(bad) {
		t.Fatal("repair did not clear the black-hole")
	}
	action.Device = "no-such-device"
	if err := rs.Execute(action); err == nil {
		t.Fatal("repair on unknown device succeeded")
	}
}

func TestRealComponentsLoopback(t *testing.T) {
	// A miniature real deployment on loopback: controller over HTTP, a
	// probe server, and an agent probing through real sockets.
	top := SmallTestbed()
	ctrl, err := NewController(top, DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	ps, err := NewProbeServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	name := top.Server(0).Name
	a, err := NewRealAgent(name, top.Server(0).Addr, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.PeerCount() > 0 {
			return // pinglist fetched over real HTTP: the loop is closed
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("agent never fetched its pinglist")
}

func TestBuildTopologyExposed(t *testing.T) {
	top, err := BuildTopology(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if top.NumServers() != 18 {
		t.Fatalf("NumServers = %d", top.NumServers())
	}
}

func TestStandardWatchdogs(t *testing.T) {
	tb, err := NewSimTestbed(smallSpec(), SimOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ws, dm := tb.StandardWatchdogs(time.Minute)
	// Fresh testbed: pinglists exist but no data or SLA rows yet.
	ws.RunOnce()
	if dm.State("pingmesh-controller") != autopilot.Healthy {
		t.Fatal("controller watchdog failed on a healthy controller")
	}
	if dm.State("pingmesh-agents") == autopilot.Healthy {
		t.Fatal("data watchdog passed with no uploads")
	}
	// After a probing window plus analysis, everything is green.
	from := tb.Clock.Now()
	if err := tb.RunWindow(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := tb.Pipeline.RunTenMinute(from, tb.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	ws.RunOnce()
	for _, dev := range []string{"pingmesh-controller", "pingmesh-agents", "pingmesh-dsa"} {
		if dm.State(dev) != autopilot.Healthy {
			t.Fatalf("%s watchdog = %v after full window", dev, dm.State(dev))
		}
	}
	// The fleet-wide stop trips the controller watchdog.
	tb.Controller.Clear()
	ws.RunOnce()
	if dm.State("pingmesh-controller") == autopilot.Healthy {
		t.Fatal("controller watchdog missed cleared pinglists")
	}
}

func TestLocalizeSilentDropsEndToEnd(t *testing.T) {
	tb, err := NewSimTestbed(TopologySpec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 3, Spines: 4},
	}}, SimOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Clean fabric: nothing to localize.
	from := tb.Clock.Now()
	if err := tb.RunWindow(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	suspects, err := tb.LocalizeSilentDrops(from, tb.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 0 {
		t.Fatalf("clean fabric produced suspects: %v", suspects)
	}

	// Incident: one spine leaks 2%.
	spine := tb.Top.DCs[0].Spines[1]
	tb.Net.SetRandomDrop(spine, 0.02, true)
	from = tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	suspects, err = tb.LocalizeSilentDrops(from, tb.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) == 0 {
		t.Fatal("incident produced no suspects")
	}
	if suspects[0].Switch != spine {
		t.Fatalf("top suspect = %v, want %v", suspects[0].Switch, spine)
	}
}

func TestRunTimeline(t *testing.T) {
	tb, err := NewSimTestbed(smallSpec(), SimOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	spine := tb.Top.DCs[0].Spines[0]
	phases, err := tb.RunTimeline([]TimelineStep{
		{Name: "baseline", Duration: 20 * time.Minute},
		{Name: "incident", Duration: 20 * time.Minute, Mutate: func(tb *SimTestbed) {
			tb.Net.SetRandomDrop(spine, 0.02, true)
		}},
		{Name: "mitigated", Duration: 20 * time.Minute, Mutate: func(tb *SimTestbed) {
			tb.Net.IsolateSwitch(spine)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("phases = %d", len(phases))
	}
	base := phases[0].Stats.DropRate()
	incident := phases[1].Stats.DropRate()
	mitigated := phases[2].Stats.DropRate()
	if incident <= base*3 {
		t.Fatalf("incident drop rate %g not above baseline %g", incident, base)
	}
	if mitigated > incident/3 {
		t.Fatalf("mitigation did not recover: %g -> %g", incident, mitigated)
	}
	// Phases tile the clock.
	if !phases[1].From.Equal(phases[0].To) || !phases[2].From.Equal(phases[1].To) {
		t.Fatal("phase windows do not tile")
	}
	// Zero-duration steps are rejected.
	if _, err := tb.RunTimeline([]TimelineStep{{Name: "bad"}}); err == nil {
		t.Fatal("zero-duration step accepted")
	}
}

// TestRunWindowUploadsWhatAgentsUpload: the testbed's store holds PMB1 —
// sketches, and raw records only for what the anomaly policy keeps raw — and
// every report row is the one the same probes publish uploaded as CSV.
func TestRunWindowUploadsWhatAgentsUpload(t *testing.T) {
	build := func() *SimTestbed {
		tb, err := NewSimTestbed(smallSpec(), SimOptions{Seed: 3, HeatmapMinProbes: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Drops, so that some probes fail and some carry a retransmit signature.
		tb.Net.SetPodsetDegraded(0, 1, netsim.Degradation{DropProb: 0.03})
		return tb
	}
	tb, ref := build(), build()
	from, to := tb.Clock.Now(), tb.Clock.Now().Add(time.Hour)
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	stream := cosmos.DailyStream("pingmesh")(from)
	runner := &fleet.Runner{Net: ref.Net, Lists: ref.lists, Seed: ref.seed ^ uint64(from.UnixNano())}
	if err := runner.Run(from, to, func(_ ServerID, recs []Record) {
		if err := ref.Store.Append(stream, probe.EncodeBatch(recs)); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	ref.Clock.AdvanceTo(to)

	render := func(tb *SimTestbed) string {
		if err := tb.AnalyzeWindow(from, to); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, table := range tb.DB().Tables() {
			rows, err := tb.DB().Query(table)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				lines = append(lines, fmt.Sprintf("%s %v", table, r))
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	want, got := render(ref), render(tb)
	if got != want || !strings.Contains(want, dsa.TableAlerts+" ") {
		t.Fatalf("rows from the PMB1 store differ from the CSV store's (or nothing alerted)\ncsv:\n%s\npmb1:\n%s", want, got)
	}

	data, err := tb.Store.Read(stream)
	if err != nil {
		t.Fatal(err)
	}
	raw, sketched, sketches := scanUploads(t, data)
	for k, n := range sketches {
		if n != 1 {
			t.Fatalf("%d sketches for %+v", n, k)
		}
	}
	if raw == 0 || sketched < 20*raw || len(data) > ref.Store.TotalBytes(stream)/10 {
		t.Fatalf("store holds %d raw and %d sketched probes in %d bytes (CSV: %d)", raw, sketched, len(data), ref.Store.TotalBytes(stream))
	}
}

// peerWindow is what an agent uploads one sketch for: a peer in a window.
type peerWindow struct {
	src, dst   netip.Addr
	dstPort    uint16
	class      probe.Class
	proto      probe.Proto
	qos        probe.QoS
	payloadLen int
	window     int64
}

// scanUploads reads stored PMB1 batches: how many probes are stored raw and
// how many sketched, and how many sketches each (peer, window) has. A healthy
// probe stored raw fails the test.
func scanUploads(t *testing.T, data []byte) (raw, sketched uint64, sketches map[peerWindow]int) {
	t.Helper()
	sketches = map[peerWindow]int{}
	var sc probe.Scanner
	sc.Reset(data)
	for kind := sc.ScanEntry(); kind != probe.EntryEOF; kind = sc.ScanEntry() {
		switch {
		case sc.RowErr() != nil:
			t.Fatal(sc.RowErr())
		case kind == probe.EntrySketch:
			sk := sc.Sketch()
			sketches[peerWindow{sk.Src, sk.Dst, sk.DstPort, sk.Class, sk.Proto, sk.QoS, sk.PayloadLen,
				probe.WindowIndex(sk.MinStart, probe.Window)}]++
			sketched += sk.Records()
		case !agent.ShipsRaw(sc.Record()):
			t.Fatalf("healthy probe stored raw: %+v", sc.Record())
		default:
			raw++
		}
	}
	return raw, sketched, sketches
}

// TestRunWindowUploadsOneSketchPerPeerWindow: on pingmesh-sim's 48-server
// fleet, three hours of RunWindow store exactly one sketch per (src, peer,
// window), as agents upload them, however the fleet's records are batched.
func TestRunWindowUploadsOneSketchPerPeerWindow(t *testing.T) {
	tb, err := NewSimTestbed(TopologySpec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}}, SimOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	from := tb.Clock.Now()
	if err := tb.RunWindow(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	data, err := tb.Store.Read(cosmos.DailyStream("pingmesh")(from))
	if err != nil {
		t.Fatal(err)
	}
	_, _, sketches := scanUploads(t, data)
	split := 0
	for _, n := range sketches {
		if n != 1 {
			split++
		}
	}
	if split != 0 || len(sketches) < 12000 {
		t.Fatalf("%d of %d (peer, window) pairs stored as more than one sketch", split, len(sketches))
	}
}
