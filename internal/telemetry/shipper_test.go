package telemetry

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pingmesh/internal/metrics"
)

func TestShipperEndToEnd(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	reg := metrics.NewRegistry()
	cnt := reg.Counter("agent.probes_sent")
	h := reg.Histogram("agent.probe_rtt")
	sh := &Shipper{
		URL:      srv.URL + "/report",
		Src:      "srv1",
		Scope:    "d0.s1.p2",
		Registry: reg,
	}

	cnt.Add(10)
	h.Observe(3 * time.Millisecond)
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatalf("ReportOnce: %v", err)
	}
	cnt.Add(5)
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatalf("ReportOnce 2: %v", err)
	}

	if v, _ := col.RollupCounter("fleet", "agent.probes_sent"); v != 15 {
		t.Fatalf("fleet counter=%d want 15", v)
	}
	fh, ok := col.RollupHistogram("d0.s1", "agent.probe_rtt")
	if !ok || fh.Count() != 1 {
		t.Fatalf("podset hist: ok=%v", ok)
	}
	st := sh.Stats()
	if st.Reports != 2 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.BytesOnWire <= 0 {
		t.Fatalf("no wire bytes counted: %+v", st)
	}
}

func TestShipperPlainBody(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	reg := metrics.NewRegistry()
	reg.Counter("c").Add(1)
	sh := &Shipper{URL: srv.URL + "/report", Src: "s", Registry: reg, NoGzip: true}
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := col.RollupCounter("fleet", "c"); v != 1 {
		t.Fatalf("counter=%d", v)
	}
}

// TestShipperRetriesTransient: 5xx responses retry the same report bytes.
func TestShipperRetriesTransient(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	inner := col.Handler()
	var fails int32 = 2
	var received int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&received, r.ContentLength)
		if atomic.AddInt32(&fails, -1) >= 0 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	reg.Counter("c").Add(7)
	sh := &Shipper{
		URL: srv.URL + "/report", Src: "s", Registry: reg,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatalf("ReportOnce after retries: %v", err)
	}
	if v, _ := col.RollupCounter("fleet", "c"); v != 7 {
		t.Fatalf("counter=%d want 7", v)
	}
	st := sh.Stats()
	if st.Retries != 2 || st.Reports != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// All three attempts carried the body, not only the one that was acked.
	if got := atomic.LoadInt64(&received); st.BytesOnWire != got || got == 0 {
		t.Fatalf("BytesOnWire = %d, the server received %d", st.BytesOnWire, got)
	}
}

// TestShipperResyncAfterCollectorRestart: the 409 path rebases and the
// next interval's report lands self-contained.
func TestShipperResyncAfterCollectorRestart(t *testing.T) {
	var received int64
	counted := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			atomic.AddInt64(&received, r.ContentLength)
			h.ServeHTTP(w, r)
		})
	}
	col1 := NewCollector(CollectorConfig{})
	srv1 := httptest.NewServer(counted(col1.Handler()))
	reg := metrics.NewRegistry()
	cnt := reg.Counter("c")
	sh := &Shipper{URL: srv1.URL + "/report", Src: "s", Registry: reg}

	cnt.Add(10)
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// Collector restarts with empty state at the same logical endpoint.
	col2 := NewCollector(CollectorConfig{})
	srv2 := httptest.NewServer(counted(col2.Handler()))
	defer srv2.Close()
	sh.URL = srv2.URL + "/report"

	cnt.Add(4)
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatalf("resync report: %v", err)
	}
	if st := sh.Stats(); st.Resyncs != 1 {
		t.Fatalf("stats: %+v", st)
	}
	cnt.Add(6)
	if err := sh.ReportOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Only post-rebase activity: the 4 was pre-rebase-encode... the rebase
	// anchored at value 14, so the collector sees the 6 alone.
	if v, _ := col2.RollupCounter("fleet", "c"); v != 6 {
		t.Fatalf("counter=%d want 6 (post-rebase delta only)", v)
	}
	// The body that drew the 409 went over the wire too.
	if st, got := sh.Stats(), atomic.LoadInt64(&received); st.Reports != 2 || st.BytesOnWire != got || got == 0 {
		t.Fatalf("BytesOnWire = %d over %d acked reports, the servers received %d", st.BytesOnWire, st.Reports, got)
	}
}

func TestCollectorHandlerRejectsGarbage(t *testing.T) {
	col := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()
	garbage := bytes.Repeat([]byte{0xAB}, 64)
	resp, err := http.Post(srv.URL+"/report", "application/octet-stream",
		bytes.NewReader(garbage))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /report: %d", resp.StatusCode)
	}
}
