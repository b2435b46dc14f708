package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
	"pingmesh/internal/slb"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/topology"
)

// rig is the binary's composition over a small testbed on a simulated clock.
type rig struct {
	top   *topology.Topology
	ctrl  *controller.Controller
	col   *telemetry.Collector
	clock *simclock.Sim
	srv   *httptest.Server
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clock := simclock.NewSim(time.Unix(1750000000, 0))
	top := topology.SmallTestbed()
	ctrl, err := controller.New(top, core.DefaultGeneratorConfig(), clock)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(telemetry.CollectorConfig{Clock: clock})
	srv := httptest.NewServer(handler(ctrl, col, top))
	t.Cleanup(srv.Close)
	return &rig{top: top, ctrl: ctrl, col: col, clock: clock, srv: srv}
}

// TestHandlerTakesTelemetryReports: an agent's shipper, pointed at the
// controller's own listener, lands its report in the collector.
func TestHandlerTakesTelemetryReports(t *testing.T) {
	r := newRig(t)
	reg := metrics.NewRegistry()
	reg.Counter("agent.fetches_ok").Add(42)
	sh := &telemetry.Shipper{
		URL: r.srv.URL + "/telemetry/report", Src: r.top.Server(0).Name, Scope: "DC1.ps00.pod00",
		Registry: reg, Clock: r.clock,
	}
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := sh.Stats(); st.Reports != 1 || st.Errors != 0 {
		t.Fatalf("shipper stats = %+v", st)
	}
	if got := r.col.AgentCount(); got != 1 {
		t.Fatalf("AgentCount = %d, want 1", got)
	}
	if v, ok := r.col.RollupCounter("fleet", "agent.fetches_ok"); !ok || v != 42 {
		t.Fatalf("fleet counter = %d,%v, want 42", v, ok)
	}
}

// TestHandlerRefusesUnknownSrc: the report endpoint is on the open
// listener, so a report whose src is no server of the topology is a 403
// and leaves nothing in the collector's tables.
func TestHandlerRefusesUnknownSrc(t *testing.T) {
	r := newRig(t)
	reg := metrics.NewRegistry()
	reg.Counter("agent.fetches_ok").Add(42)
	sh := &telemetry.Shipper{
		URL: r.srv.URL + "/telemetry/report", Src: "intruder-0001", Scope: "x.y.z",
		Registry: reg, Clock: r.clock,
	}
	if err := sh.ReportOnce(context.Background()); err == nil || !strings.Contains(err.Error(), "status 403") {
		t.Fatalf("ReportOnce = %v, want a 403", err)
	}
	if got := r.col.AgentCount(); got != 0 {
		t.Fatalf("AgentCount = %d, want 0", got)
	}
	if _, ok := r.col.RollupCounter("fleet", "agent.fetches_ok"); ok {
		t.Fatal("a refused report reached the rollups")
	}
	snap := r.col.Metrics().Snapshot()
	if snap.Counters["telemetry.refused_src"] != 1 || snap.Counters["telemetry.reports"] != 0 {
		t.Fatalf("refused_src = %d, reports = %d; want 1, 0",
			snap.Counters["telemetry.refused_src"], snap.Counters["telemetry.reports"])
	}
}

// TestReplicasShipToOneCollector is the replicated deployment: two
// controller replicas behind one VIP, agents polling the VIP and shipping
// to one replica's report endpoint (-telemetry-url). That collector's fleet
// counter is every fetch the agents made, whichever replica served it.
func TestReplicasShipToOneCollector(t *testing.T) {
	top := topology.SmallTestbed()
	var (
		cols  [2]*telemetry.Collector
		addrs []string
		urls  []string
	)
	for i := range cols {
		ctrl, err := controller.New(top, core.DefaultGeneratorConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cols[i] = telemetry.NewCollector(telemetry.CollectorConfig{})
		srv := httptest.NewServer(handler(ctrl, cols[i], top))
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.Listener.Addr().String())
		urls = append(urls, srv.URL)
	}
	lb, err := slb.New("127.0.0.1:0", addrs, slb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.Close() })
	vip := "http://" + lb.Addr().String()
	// A connection per request, as the shipper makes, so the VIP spreads them.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	const agents, rounds = 4, 3
	var shippers [agents]*telemetry.Shipper
	for i := range shippers {
		shippers[i] = &telemetry.Shipper{
			URL: urls[0] + "/telemetry/report", Src: top.Server(topology.ServerID(i)).Name,
			Scope: "DC1.ps00.pod00", Registry: metrics.NewRegistry(),
		}
	}
	for round := 0; round < rounds; round++ {
		for i, sh := range shippers {
			resp, err := client.Get(vip + "/pinglist/" + top.Server(topology.ServerID(i)).Name)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("pinglist through the VIP = %d", resp.StatusCode)
			}
			sh.Registry.Counter("agent.fetches_ok").Inc()
		}
		for _, sh := range shippers {
			if err := sh.ReportOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, sh := range shippers {
		if st := sh.Stats(); st.Reports != rounds || st.Resyncs != 0 || st.Errors != 0 {
			t.Errorf("agent %d shipper stats = %+v", i, st)
		}
	}
	if v, ok := cols[0].RollupCounter("fleet", "agent.fetches_ok"); !ok || v != agents*rounds {
		t.Errorf("fleet counter = %d,%v, want %d", v, ok, agents*rounds)
	}
	if n := cols[1].AgentCount(); n != 0 {
		t.Errorf("the other replica's collector has %d agents", n)
	}
	for addr, n := range lb.ForwardCounts() {
		if n == 0 {
			t.Errorf("the VIP sent no fetch to replica %s", addr)
		}
	}
}

// TestHandlerServesPinglists: the pinglist API is unchanged behind the
// composed mux — a full body with a strong ETag, then a 304 on it.
func TestHandlerServesPinglists(t *testing.T) {
	r := newRig(t)
	name := topology.SmallTestbed().Server(0).Name
	resp, err := http.Get(r.srv.URL + "/pinglist/" + name)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("Etag")
	if resp.StatusCode != http.StatusOK || etag == "" || etag != r.ctrl.ETag(name) {
		t.Fatalf("GET pinglist = %d, ETag %q (controller's %q)", resp.StatusCode, etag, r.ctrl.ETag(name))
	}
	req, _ := http.NewRequest(http.MethodGet, r.srv.URL+"/pinglist/"+name, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp.StatusCode)
	}
}

// TestHandlerMethods: a wrong method on the composed /telemetry/report is
// a 405 naming POST; the routes handed to the controller keep their own
// 405s (controller.TestMethodNotAllowed has the table).
func TestHandlerMethods(t *testing.T) {
	r := newRig(t)
	h := r.srv.Config.Handler
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodGet, "/telemetry/report", "POST"},
		{http.MethodPut, "/telemetry/report", "POST"},
		{http.MethodPost, "/version", "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s = %d, Allow %q; want 405, Allow %q", tc.method, tc.path, rec.Code, rec.Header().Get("Allow"), tc.allow)
		}
	}
}
