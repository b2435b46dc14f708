package debugsrv

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return res, body
}

func TestIndexListsEndpoints(t *testing.T) {
	exp := metrics.NewExposition()
	h := Handler(Config{Tracer: trace.New(nil), Metrics: exp})
	res, body := get(t, h, "/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var idx struct {
		Endpoints []string `json:"endpoints"`
		Tracing   bool     `json:"tracing"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !idx.Tracing {
		t.Error("tracing = false, want true")
	}
	for _, want := range []string{"/debug/pprof/", "/debug/trace", "/health", "/metrics"} {
		found := false
		for _, e := range idx.Endpoints {
			if e == want {
				found = true
			}
		}
		if !found {
			t.Errorf("index missing endpoint %s", want)
		}
	}
	if res, _ := get(t, h, "/nope"); res.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", res.StatusCode)
	}
}

func TestPprofIndex(t *testing.T) {
	h := Handler(Config{})
	res, body := get(t, h, "/debug/pprof/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list goroutine profile")
	}
}

func TestTraceDisabled(t *testing.T) {
	h := Handler(Config{})
	res, body := get(t, h, "/debug/trace")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", res.StatusCode)
	}
	if !strings.Contains(string(body), "tracing disabled") {
		t.Errorf("body = %s", body)
	}
}

func TestTraceDumpAndSingleTrace(t *testing.T) {
	clk := simclock.NewSim(time.Unix(1000, 0))
	tr := trace.New(clk)
	tr.SetSampleEvery(1)
	tid := tr.SampleProbe()
	if tid == 0 {
		t.Fatal("SampleProbe returned 0 with every=1")
	}
	start := clk.Now()
	clk.Advance(3 * time.Millisecond)
	tr.Ring("agent").Span(tid, trace.StageProbe, "peer0", start, clk.Now(), true)

	h := Handler(Config{Tracer: tr})
	res, body := get(t, h, "/debug/trace")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("dump status = %d", res.StatusCode)
	}
	var dump trace.Dump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("bad dump JSON: %v", err)
	}
	if len(dump.Rings) != 1 || dump.Rings[0].Component != "agent" {
		t.Fatalf("dump rings = %+v", dump.Rings)
	}

	res, body = get(t, h, "/debug/trace?trace="+trace.FormatTraceID(tid))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("single-trace status = %d", res.StatusCode)
	}
	var spans []trace.SpanDump
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatalf("bad spans JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Stage != "probe" || spans[0].Name != "peer0" {
		t.Fatalf("spans = %+v", spans)
	}

	if res, _ := get(t, h, "/debug/trace?trace=zzz"); res.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", res.StatusCode)
	}
}

func TestHealthTransitions(t *testing.T) {
	clk := simclock.NewSim(time.Unix(1000, 0))
	tr := trace.New(clk)
	h := Handler(Config{Tracer: tr})

	res, body := get(t, h, "/health")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("waiting status = %d", res.StatusCode)
	}
	var hh trace.Health
	if err := json.Unmarshal(body, &hh); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if hh.Status != "waiting" {
		t.Errorf("status = %q, want waiting", hh.Status)
	}

	tr.Freshness().Mark(trace.StageUpload)
	if res, _ := get(t, h, "/health"); res.StatusCode != http.StatusOK {
		t.Errorf("fresh status = %d, want 200", res.StatusCode)
	}

	clk.Advance(6 * time.Minute) // past the 5m agent-upload budget
	res, body = get(t, h, "/health")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale status = %d, want 503 (body %s)", res.StatusCode, body)
	}
	if err := json.Unmarshal(body, &hh); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if hh.Status != "degraded" {
		t.Errorf("status = %q, want degraded", hh.Status)
	}
}

func TestHealthNoTracer(t *testing.T) {
	res, body := get(t, Handler(Config{}), "/health")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if !strings.Contains(string(body), "tracing disabled") {
		t.Errorf("body = %s", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("agent.probes_total").Add(7)
	exp := metrics.NewExposition()
	exp.Add("", reg)
	h := Handler(Config{Metrics: exp})
	res, body := get(t, h, "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if !strings.Contains(string(body), "pingmesh_agent_probes_total 7") {
		t.Errorf("exposition missing counter:\n%s", body)
	}

	res, _ = get(t, Handler(Config{}), "/metrics")
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("no-metrics status = %d, want 404", res.StatusCode)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Config{Tracer: trace.New(nil)})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()
	res, err := http.Get("http://" + s.Addr() + "/health")
	if err != nil {
		t.Fatalf("GET /health: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTelemetryEndpoint(t *testing.T) {
	st := telemetry.NewStore()
	at := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		st.Append("agent/counter/probes", at.Add(time.Duration(i)*5*time.Minute), float64(i))
	}
	h := Handler(Config{Series: st})

	res, body := get(t, h, "/telemetry")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("keys status = %d", res.StatusCode)
	}
	var keys struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal(body, &keys); err != nil || len(keys.Keys) != 1 {
		t.Fatalf("keys = %v err=%v", keys, err)
	}

	res, body = get(t, h, "/telemetry?key=agent/counter/probes")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("series status = %d", res.StatusCode)
	}
	var series struct {
		Points []telemetry.Point `json:"points"`
	}
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(series.Points) != 30 {
		t.Fatalf("%d raw points, want 30", len(series.Points))
	}
	if series.Points[29].Value != 29 {
		t.Fatalf("newest point = %v", series.Points[29])
	}

	res, body = get(t, h, "/telemetry?key=agent/counter/probes&tier=hourly")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("hourly status = %d", res.StatusCode)
	}
	if err := json.Unmarshal(body, &series); err != nil || len(series.Points) == 0 {
		t.Fatalf("hourly points = %d err=%v", len(series.Points), err)
	}

	if res, _ := get(t, h, "/telemetry?key=nope"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key status = %d", res.StatusCode)
	}

	// Without a Series source the endpoint is absent.
	if res, _ := get(t, Handler(Config{}), "/telemetry"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled endpoint status = %d", res.StatusCode)
	}
}
