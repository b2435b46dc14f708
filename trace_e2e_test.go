package pingmesh

// End-to-end tests for the "who watches Pingmesh" layer: one sampled
// probe traced through every pipeline stage (agent scheduling, the real
// network library, CSV encode, Cosmos upload, SCOPE ingest, the DSA
// cycle, portal publish), and the staleness watchdog paging when the
// analysis half of the pipeline freezes while data keeps flowing.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"net/netip"

	"pingmesh/internal/agent"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/dsa"
	"pingmesh/internal/netlib"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/portal"
	"pingmesh/internal/topology"
	"pingmesh/internal/trace"
)

// httpGet fetches a URL and returns the response plus its body.
func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return res, body
}

// fetcherFunc adapts a closure to the agent's pinglist Fetcher.
type fetcherFunc func(ctx context.Context, server string) (*pinglist.File, error)

func (f fetcherFunc) Fetch(ctx context.Context, server string) (*pinglist.File, error) {
	return f(ctx, server)
}

// TestE2ETraceAcrossPipeline samples every probe and follows one trace ID
// from the agent's scheduler all the way to the portal's published
// snapshot: probe -> netprobe -> encode -> upload -> ingest -> scope-job
// -> dsa-cycle -> publish, then reads the same spans back over
// GET /debug/trace.
func TestE2ETraceAcrossPipeline(t *testing.T) {
	tracer := trace.New(nil) // wall clock: the probes hit a real socket
	tracer.SetSampleEvery(1)

	srv, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// One peer: the local echo server, probed over real TCP.
	lists := fetcherFunc(func(ctx context.Context, server string) (*pinglist.File, error) {
		return &pinglist.File{
			Server:    server,
			Generated: time.Now(),
			Version:   "v1",
			Peers: []pinglist.Peer{{
				Addr:        "127.0.0.1",
				Port:        srv.Port(),
				Class:       "intra-dc",
				Proto:       "tcp",
				QoS:         "high",
				IntervalSec: 1,
			}},
		}, nil
	})
	a, err := agent.New(agent.Config{
		ServerName: "s0",
		SourceAddr: netip.MustParseAddr("127.0.0.1"),
		Controller: lists,
		Prober:     agent.NewRealProber(5 * time.Second),
		Uploader:   &cosmos.Client{Store: store, Stream: cosmos.DailyStream("pingmesh")},
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The cycle's span: two hours of whole 10-minute windows around now.
	windowFrom := time.Now().Add(-time.Hour).Truncate(10 * time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()
	waitUntil(t, func() bool {
		return a.Metrics().Snapshot().Counters["agent.probes_ok"] >= 1
	}, "agent probed the local echo server")
	cancel()
	<-done // Run's final flush uploads the buffered records

	ids := tracer.ActiveProbeIDs()
	if len(ids) == 0 {
		t.Fatal("no traced probes in flight after upload")
	}
	tid := ids[0]

	// Analysis half on the same tracer; the portal republishes per cycle
	// exactly as the testbed wires it, so publish spans see the in-flight
	// probe table before the cycle completes it.
	pipe, err := dsa.New(dsa.Config{Store: store, Top: top, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	p := portal.New(portal.Config{Pipeline: pipe, Top: top, Tracer: tracer})
	pipe.SetOnCycle(func(kind string, from, to time.Time) { p.Refresh() })
	if err := pipe.RunTenMinute(windowFrom, windowFrom.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}

	spans := tracer.TraceSpans(tid)
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Stage] = true
	}
	for _, stage := range []string{"probe", "netprobe", "encode", "upload", "ingest", "scope-job", "dsa-cycle", "publish"} {
		if !seen[stage] {
			t.Errorf("trace %s missing stage %q (got %v)", trace.FormatTraceID(tid), stage, seen)
		}
	}
	// Spans come back ordered by start time; the probe itself is first.
	if len(spans) == 0 || spans[0].Stage != "probe" {
		t.Fatalf("first span = %+v, want the agent's probe span", spans)
	}

	// The cycle completed the probe: the in-flight table must drain so the
	// ingest fast path goes back to one atomic load.
	if tracer.HasActiveProbes() {
		t.Error("probe table not drained after the DSA cycle completed")
	}

	// The same trace is dumpable over the portal's debug endpoint.
	hs := httptest.NewServer(p.Handler())
	defer hs.Close()
	res, body := httpGet(t, hs.URL+"/debug/trace?trace="+trace.FormatTraceID(tid))
	if res.StatusCode != 200 {
		t.Fatalf("/debug/trace status = %d", res.StatusCode)
	}
	var dumped []trace.SpanDump
	if err := json.Unmarshal(body, &dumped); err != nil {
		t.Fatalf("bad /debug/trace JSON: %v", err)
	}
	if len(dumped) != len(spans) {
		t.Fatalf("/debug/trace returned %d spans, tracer has %d", len(dumped), len(spans))
	}
	res, body = httpGet(t, hs.URL+"/debug/trace")
	if res.StatusCode != 200 {
		t.Fatalf("full dump status = %d", res.StatusCode)
	}
	var dump trace.Dump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("bad full dump JSON: %v", err)
	}
	rings := map[string]bool{}
	for _, r := range dump.Rings {
		rings[r.Component] = true
	}
	for _, c := range []string{"agent", "netlib", "scope", "dsa", "portal"} {
		if !rings[c] {
			t.Errorf("dump missing component ring %q", c)
		}
	}
}

// TestE2EStalenessWatchdogFiresAndRecovers freezes the analysis half of
// the pipeline while simulated probing keeps uploading: the
// pingmesh-stale watchdog must page, /health must flip to degraded (503),
// and both must recover once analysis runs again (§3.5 freshness budget).
func TestE2EStalenessWatchdogFiresAndRecovers(t *testing.T) {
	tb, err := NewSimTestbed(TopologySpec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 2},
	}}, SimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := tb.NewPortal()
	ws, dm := tb.StandardWatchdogs(time.Minute)

	health := func() (int, trace.Health) {
		t.Helper()
		rec := httptest.NewRecorder()
		p.ServeHealth(rec, httptest.NewRequest("GET", "/health", nil))
		var h trace.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("bad /health JSON: %v", err)
		}
		return rec.Code, h
	}

	// Healthy cycle: probe, analyze, publish.
	from := tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := tb.AnalyzeWindow(from, tb.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	ws.RunOnce()
	if err := ws.Status()[autopilot.StalenessWatchdogName]; err != nil {
		t.Fatalf("healthy pipeline paged: %v", err)
	}
	if code, h := health(); code != 200 || h.Status != "ok" {
		t.Fatalf("healthy /health = %d %q", code, h.Status)
	}

	// Freeze the DSA: another hour of probing advances the clock past the
	// 20-minute Cosmos/SCOPE budget, but no analysis cycle runs.
	from = tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	ws.RunOnce()
	werr := ws.Status()[autopilot.StalenessWatchdogName]
	if werr == nil {
		t.Fatal("stalled pipeline did not page")
	}
	if !errors.Is(werr, trace.ErrStale) {
		t.Fatalf("watchdog error = %v, want ErrStale", werr)
	}
	if s := dm.State(autopilot.StalenessDevice); s == autopilot.Healthy {
		t.Fatalf("device manager still reports %s healthy", autopilot.StalenessDevice)
	}
	code, h := health()
	if code != 503 || h.Status != "degraded" {
		t.Fatalf("stalled /health = %d %q, want 503 degraded", code, h.Status)
	}
	staleDSA := false
	for _, s := range h.Stages {
		if s.Stage == "dsa-cycle" && s.Stale {
			staleDSA = true
		}
	}
	if !staleDSA {
		t.Fatalf("degraded health does not name the dsa-cycle stage: %+v", h.Stages)
	}

	// Thaw: one analysis cycle over the backlog clears the page.
	if err := tb.AnalyzeWindow(from, tb.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	ws.RunOnce()
	if err := ws.Status()[autopilot.StalenessWatchdogName]; err != nil {
		t.Fatalf("recovered pipeline still paging: %v", err)
	}
	if s := dm.State(autopilot.StalenessDevice); s != autopilot.Healthy {
		t.Fatalf("device not cleared after recovery: %v", s)
	}
	if code, h := health(); code != 200 || h.Status != "ok" {
		t.Fatalf("recovered /health = %d %q", code, h.Status)
	}
}
