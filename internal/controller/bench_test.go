package controller

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

func benchController(b *testing.B) (*Controller, string) {
	b.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 5, PodsPerPodset: 10, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 8},
	}})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		b.Fatal(err)
	}
	return c, top.Server(0).Name
}

// serveOnce drives the handler in-process (no sockets) and returns the
// response.
func serveOnce(h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// BenchmarkServeFull is the pre-PR cost of every poll: a full
// uncompressed body per request.
func BenchmarkServeFull(b *testing.B) {
	c, name := benchController(b)
	h := c.Handler()
	path := "/pinglist/" + name
	body := serveOnce(h, path, nil).Body.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveOnce(h, path, nil); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.SetBytes(int64(body))
}

// BenchmarkServeGzip serves the precompressed body.
func BenchmarkServeGzip(b *testing.B) {
	c, name := benchController(b)
	h := c.Handler()
	path := "/pinglist/" + name
	hdr := map[string]string{"Accept-Encoding": "gzip"}
	body := serveOnce(h, path, hdr).Body.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveOnce(h, path, hdr); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.SetBytes(int64(body))
}

// BenchmarkServeNotModified is the steady-state poll after this PR: a
// conditional GET answered 304 with no body at all.
func BenchmarkServeNotModified(b *testing.B) {
	c, name := benchController(b)
	h := c.Handler()
	path := "/pinglist/" + name
	hdr := map[string]string{"If-None-Match": c.ETag(name)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveOnce(h, path, hdr); w.Code != http.StatusNotModified {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkUpdateTopology measures a full regeneration with the ring full
// — parallel generation, then marshal/gzip/hash of every file and the
// patch to it from each of its DefaultDeltaRing ringed predecessors.
// scripts/ci.sh tier 3 prints it: with -benchmem it is where a compressor
// per body (≈1.3 MB/pinglist) or an XML parse per patch would show.
func BenchmarkUpdateTopology(b *testing.B) {
	c, _ := benchController(b)
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 5, PodsPerPodset: 10, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 8},
	}})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < DefaultDeltaRing+b.N; i++ {
		if i == DefaultDeltaRing {
			b.ResetTimer()
		}
		if err := c.UpdateTopology(top); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.PinglistCount()), "pinglists")
	b.ReportMetric(float64(c.Metrics().Gauge("controller.patches").Value()), "patches")
}

// nopResponseWriter is a reusable ResponseWriter with a persistent header
// map, modeling a keep-alive connection: net/http reuses header storage
// across requests, so steady-state serving must not allocate any.
type nopResponseWriter struct {
	h http.Header
	n int
}

func (w *nopResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 8)
	}
	return w.h
}
func (w *nopResponseWriter) WriteHeader(int) {}
func (w *nopResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkServeDelta is the converging-agent path after this PR: a
// conditional GET from a one-generation-stale agent answered with the
// cached patch body (226) instead of the full file.
func BenchmarkServeDelta(b *testing.B) {
	rig := newDeltaRig(b, Options{})
	h := rig.h
	path := "/pinglist/" + rig.name
	hdr := map[string]string{
		"If-None-Match":   rig.oldETag,
		"A-IM":            DeltaIM,
		"Accept-Encoding": "gzip",
	}
	body := serveOnce(h, path, hdr).Body.Len() // warm the delta cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveOnce(h, path, hdr); w.Code != http.StatusIMUsed {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.SetBytes(int64(body))
}
