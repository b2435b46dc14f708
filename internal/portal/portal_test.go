package portal

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/dsa"
	"pingmesh/internal/fleet"
	"pingmesh/internal/metrics"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
	"pingmesh/internal/trace"
)

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// rig is a loaded deployment: one hour of simulated probes analyzed by the
// pipeline, with a portal on top.
type rig struct {
	top    *topology.Topology
	net    *netsim.Network
	clock  *simclock.Sim
	pipe   *dsa.Pipeline
	portal *Portal
}

func buildRig(t testing.TB, mutate func(*netsim.Network)) *rig {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(n)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		t.Fatal(err)
	}
	runner := &fleet.Runner{Net: n, Lists: lists, Seed: 9}
	err = runner.Run(t0, t0.Add(time.Hour), func(src topology.ServerID, recs []probe.Record) {
		if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(t0.Add(time.Hour))
	pipe, err := dsa.New(dsa.Config{
		Store: store, Top: top, Clock: clock, HeatmapMinProbes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunHourly(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Pipeline: pipe, Top: top, Clock: clock})
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	return &rig{top: top, net: n, clock: clock, pipe: pipe, portal: p}
}

func get(t testing.TB, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestPortalEndpoints(t *testing.T) {
	r := buildRig(t, nil)
	h := r.portal.Handler()

	// Index: epoch, scopes, heatmaps.
	w := get(t, h, "/", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/ status = %d", w.Code)
	}
	var idx indexDoc
	if err := json.Unmarshal(w.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", idx.Epoch)
	}
	if len(idx.Scopes) == 0 || len(idx.Heatmaps) != 1 || idx.Heatmaps[0] != "DC1" {
		t.Fatalf("index = %+v", idx)
	}
	if got := w.Header().Get("X-Pingmesh-Epoch"); got != "1" {
		t.Fatalf("epoch header = %q", got)
	}

	// SLA: the full table and one scope.
	w = get(t, h, "/sla", nil)
	var entries []SLAEntry
	if err := json.Unmarshal(w.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("/sla returned no entries")
	}
	w = get(t, h, "/sla/dc/DC1", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/sla/dc/DC1 status = %d", w.Code)
	}
	var e SLAEntry
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Scope != "dc/DC1" || e.Probes == 0 || e.P99 <= 0 {
		t.Fatalf("dc entry = %+v", e)
	}

	// Heatmap JSON and SVG.
	w = get(t, h, "/heatmap/DC1", nil)
	var hm heatmapJSON
	if err := json.Unmarshal(w.Body.Bytes(), &hm); err != nil {
		t.Fatal(err)
	}
	if hm.DC != "DC1" || hm.Pattern != "normal" || len(hm.Pods) != 6 {
		t.Fatalf("heatmap = dc=%q pattern=%q pods=%d", hm.DC, hm.Pattern, len(hm.Pods))
	}
	w = get(t, h, "/heatmap/DC1.svg", nil)
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg content type = %q", ct)
	}
	if !strings.HasPrefix(w.Body.String(), "<svg") {
		t.Fatalf("svg body starts %q", w.Body.String()[:20])
	}

	// Alerts: healthy fabric, empty JSON array (not null).
	w = get(t, h, "/alerts", nil)
	if body := strings.TrimSpace(w.Body.String()); body != "[]" {
		t.Fatalf("alerts = %q", body)
	}

	// Health and errors.
	if w = get(t, h, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
	if w = get(t, h, "/sla/dc/NOPE", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown scope status = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/sla", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
}

// TestPortalRoutesAreReadOnly: every route the portal mounts answers a
// method other than GET and HEAD with 405 and the methods it allows, before
// any handler runs, and still serves HEAD.
func TestPortalRoutesAreReadOnly(t *testing.T) {
	h := buildRig(t, nil).portal.Handler()
	for _, path := range []string{
		"/", "/sla", "/sla/dc/DC1", "/heatmap/DC1", "/heatmap/DC1.svg", "/alerts", "/nope",
		"/triage?src=d0.s0.p0&dst=d0.s1.p1", "/diagnose", "/diagnose?src=d0.s0.p0&dst=d0.s1.p1",
		"/metrics", "/healthz", "/health", "/debug/trace",
	} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
				t.Errorf("%s %s = %d, Allow %q; want 405, Allow \"GET, HEAD\"", method, path, rec.Code, rec.Header().Get("Allow"))
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/sla", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD /sla = %d", rec.Code)
	}
}

func TestPortalConditionalGet(t *testing.T) {
	r := buildRig(t, nil)
	h := r.portal.Handler()

	w := get(t, h, "/sla/dc/DC1", nil)
	etag := w.Header().Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on cached body")
	}
	w = get(t, h, "/sla/dc/DC1", map[string]string{"If-None-Match": etag})
	if w.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes", w.Body.Len())
	}

	// A refresh over unchanged pipeline output publishes a new epoch but
	// identical content hashes: clients keep revalidating to 304.
	if err := r.portal.Refresh(); err != nil {
		t.Fatal(err)
	}
	w = get(t, h, "/sla/dc/DC1", map[string]string{"If-None-Match": etag})
	if w.Code != http.StatusNotModified {
		t.Fatalf("post-refresh revalidation status = %d", w.Code)
	}
	if got := w.Header().Get("X-Pingmesh-Epoch"); got != "2" {
		t.Fatalf("epoch header after refresh = %q", got)
	}
}

func TestPortalMetrics(t *testing.T) {
	r := buildRig(t, nil)
	extra := metrics.NewRegistry()
	extra.Counter("uploads").Add(7)
	p := New(Config{
		Pipeline: r.pipe, Top: r.top, Clock: r.clock,
		Metrics: []MetricSource{{Prefix: "agent", Registry: extra}},
	})
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := p.Handler()
	get(t, h, "/sla", nil) // generate one serve

	w := get(t, h, "/metrics", nil)
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE pingmesh_portal_serves counter",
		"pingmesh_portal_serves 1",
		"pingmesh_portal_epoch 1",
		"pingmesh_agent_uploads 7", // extra sources scrape with their prefix
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
}

// TestPortalShardHealthAndMetrics wires a pipeline behind the portal:
// /health must carry the fold tier's one synthetic stage and /metrics the
// fold counter and backlog gauge.
func TestPortalShardHealthAndMetrics(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		t.Fatal(err)
	}
	runner := &fleet.Runner{Net: n, Lists: lists, Seed: 5}
	err = runner.Run(t0, t0.Add(10*time.Minute), func(src topology.ServerID, recs []probe.Record) {
		if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(t0)
	tracer := trace.New(clock)
	pipe, err := dsa.New(dsa.Config{
		Store: store, Top: top, Clock: clock, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.AdvanceTo(t0.Add(10 * time.Minute))
	tracer.Freshness().Mark(trace.StageUpload)
	pipe.FoldNow()
	if err := pipe.RunTenMinute(t0, t0.Add(10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	p := New(Config{
		Pipeline: pipe, Top: top, Clock: clock, Tracer: tracer,
		Metrics: []MetricSource{{Prefix: "", Registry: pipe.JobRegistry()}},
	})
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := p.Handler()

	w := get(t, h, "/health", nil)
	var health struct {
		Status string `json:"status"`
		Stages []struct {
			Stage  string `json:"stage"`
			Marked bool   `json:"marked"`
			Stale  bool   `json:"stale"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatalf("health not JSON: %v\n%s", err, w.Body.String())
	}
	found := 0
	for _, st := range health.Stages {
		if st.Stage == "dsa-fold" {
			found++
			if !st.Marked {
				t.Fatalf("fold stage unmarked after folding: %s", w.Body.String())
			}
			if st.Stale {
				t.Fatalf("fold stage stale with empty backlog: %s", w.Body.String())
			}
		}
	}
	if found != 1 {
		t.Fatalf("health carries %d dsa-fold stages, want 1:\n%s", found, w.Body.String())
	}
	// A -debug-addr listener of the same process serves the same verdict: one
	// implementation, one stage list.
	if side := get(t, debugsrv.Handler(debugsrv.Config{Tracer: tracer}), "/health", nil); side.Code != w.Code || side.Body.String() != w.Body.String() {
		t.Fatalf("debug port /health = %d\n%s\nportal /health = %d\n%s", side.Code, side.Body.String(), w.Code, w.Body.String())
	}

	body := get(t, h, "/metrics", nil).Body.String()
	for _, want := range []string{
		"pingmesh_dsa_fold_backlog 0",
		"pingmesh_dsa_fold_extents_folded",
		"pingmesh_dsa_cycle_offgrid_rescans 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
}

func TestTriage(t *testing.T) {
	r := buildRig(t, nil)
	h := r.portal.Handler()

	// Healthy fabric: a same-DC pod pair is not a network issue.
	w := get(t, h, "/triage?src=d0.s0.p0&dst=d0.s1.p1", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("triage status = %d: %s", w.Code, w.Body.String())
	}
	var res TriageResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictNotNetwork {
		t.Fatalf("verdict = %q (%s)", res.Verdict, res.Reason)
	}
	if res.DCSLA == nil || res.PairP99 <= 0 {
		t.Fatalf("missing evidence: %+v", res)
	}

	// Server names resolve too.
	name := r.top.Servers()[0].Name
	w = get(t, h, "/triage?src="+name+"&dst=d0.s1.p2", nil)
	json.Unmarshal(w.Body.Bytes(), &res)
	if res.Verdict != VerdictNotNetwork {
		t.Fatalf("by-name verdict = %q (%s)", res.Verdict, res.Reason)
	}
	if res.Src != "d0.s0.p0" {
		t.Fatalf("resolved src = %q", res.Src)
	}

	// Unknown endpoints are inconclusive, not errors.
	w = get(t, h, "/triage?src=nonsense&dst=d0.s0.p0", nil)
	json.Unmarshal(w.Body.Bytes(), &res)
	if res.Verdict != VerdictInconclusive {
		t.Fatalf("unresolvable src verdict = %q", res.Verdict)
	}

	// Missing params are a usage error.
	if w = get(t, h, "/triage?src=d0.s0.p0", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("missing dst status = %d", w.Code)
	}
}

func TestTriageDegradedPair(t *testing.T) {
	// Degrade one podset's fabric so its pairs go red while the DC-level
	// SLA may or may not trip; triage must call pairs through podset 1
	// "network" either way.
	r := buildRig(t, func(n *netsim.Network) {
		n.SetPodsetDegraded(0, 1, netsim.Degradation{ExtraLatencyMean: 12 * time.Millisecond})
	})
	w := get(t, r.portal.Handler(), "/triage?src=d0.s0.p0&dst=d0.s1.p1", nil)
	var res TriageResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictNetwork {
		t.Fatalf("verdict = %q (%s)", res.Verdict, res.Reason)
	}
}

func TestPortalBeforeFirstRefresh(t *testing.T) {
	// A portal with no snapshot serves 404s and an inconclusive triage
	// rather than crashing.
	p := New(Config{})
	h := p.Handler()
	if w := get(t, h, "/sla", nil); w.Code != http.StatusNotFound {
		t.Fatalf("/sla before refresh = %d", w.Code)
	}
	if w := get(t, h, "/triage?src=a&dst=b", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/triage before refresh = %d", w.Code)
	}
	if p.Epoch() != 0 {
		t.Fatalf("epoch = %d", p.Epoch())
	}
}

// TestConcurrentRefreshAndReads drives readers against a refreshing portal
// (the race-tier workload): every reader must observe a whole epoch — a
// consistent body, ETag and epoch header — never a mix.
func TestConcurrentRefreshAndReads(t *testing.T) {
	r := buildRig(t, nil)
	h := r.portal.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := r.portal.Refresh(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		w := get(t, h, "/sla/dc/DC1", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("read %d: status %d", i, w.Code)
		}
		if w.Header().Get("Etag") == "" || w.Header().Get("X-Pingmesh-Epoch") == "" {
			t.Fatalf("read %d: missing epoch/etag headers", i)
		}
		get(t, h, "/triage?src=d0.s0.p0&dst=d0.s1.p1", nil)
	}
	<-done
	if got := r.portal.Epoch(); got != 51 {
		t.Fatalf("final epoch = %d, want 51", got)
	}
}
