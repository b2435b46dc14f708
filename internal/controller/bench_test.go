package controller

import (
	"net/http"
	"net/http/httptest"
	"runtime"
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

// benchServe serves one prepared GET of path per iteration into one reused
// writer, as a keep-alive connection does, and fails on any status but
// want: the timed work is the mux, the decision and the render, not the
// building of a request and a recorder.
func benchServe(b *testing.B, h http.Handler, path string, hdr map[string]string, want int) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := &nopResponseWriter{}
	h.ServeHTTP(w, req) // warm: the first serve may build what later ones read
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != want {
			b.Fatalf("status %d, want %d", w.code, want)
		}
	}
}

// BenchmarkServeFull is a poll that takes the full uncompressed body.
func BenchmarkServeFull(b *testing.B) {
	c, name := benchController(b)
	benchServe(b, c.Handler(), "/pinglist/"+name, nil, http.StatusOK)
}

// BenchmarkServeGzip serves the precompressed body.
func BenchmarkServeGzip(b *testing.B) {
	c, name := benchController(b)
	benchServe(b, c.Handler(), "/pinglist/"+name, map[string]string{"Accept-Encoding": "gzip"}, http.StatusOK)
}

// BenchmarkServeNotModified is the steady-state poll: a conditional GET
// answered 304 with no body at all.
func BenchmarkServeNotModified(b *testing.B) {
	c, name := benchController(b)
	benchServe(b, c.Handler(), "/pinglist/"+name, map[string]string{"If-None-Match": c.ETag(name)}, http.StatusNotModified)
}

// churnSpec is fleet_churn's topology at a given podset count: two DCs of
// ten pods of six servers a podset, so 5 podsets are 600 servers and 6 are
// 720.
func churnSpec(podsets int) topology.Spec {
	dc := func(name string) topology.DCSpec {
		return topology.DCSpec{Name: name, Podsets: podsets, PodsPerPodset: 10, ServersPerPod: 6, LeavesPerPodset: 2, Spines: 4}
	}
	return topology.Spec{DCs: []topology.DCSpec{dc("DC1"), dc("DC2")}}
}

// BenchmarkUpdateTopology measures UpdateTopology in two shapes; scripts/ci.sh
// tier 3 prints both with -benchmem.
//
// churn is fleet_churn's update on two workers: a controller fresh from
// New (outside the timer) grows from 5 to 6 podsets a DC, so its ring
// holds one generation and most files gain peers. It is what
// controller.update_ms measures, and TestUpdateTopologyAllocs bounds its
// allocation.
//
// ring re-applies one unchanged 1,000-server topology with the ring full:
// every file is patched from DefaultDeltaRing predecessors that differ
// from it only in the version header.
func BenchmarkUpdateTopology(b *testing.B) {
	b.Run("churn", func(b *testing.B) {
		base, updated := buildSpec(b, churnSpec(5)), buildSpec(b, churnSpec(6))
		var c *Controller
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c = newChurnController(b, base)
			b.StartTimer()
			if err := c.UpdateTopology(updated); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(c.Metrics().Gauge("controller.patches").Value()), "patches")
	})
	b.Run("ring", func(b *testing.B) {
		c, _ := benchController(b)
		top := buildSpec(b, topology.Spec{DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 5, PodsPerPodset: 10, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 8},
		}})
		b.ReportAllocs()
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
	})
}

func buildSpec(tb testing.TB, spec topology.Spec) *topology.Topology {
	tb.Helper()
	top, err := topology.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// newChurnController is a fresh controller over base with two update
// workers on any machine: each worker keeps its own gzip compressor
// (≈1.2 MB of flate state), so with GOMAXPROCS workers what
// TestUpdateTopologyAllocs bounds would grow with the core count.
func newChurnController(tb testing.TB, base *topology.Topology) *Controller {
	tb.Helper()
	cfg := core.DefaultGeneratorConfig()
	cfg.Parallelism = 2
	c, err := New(base, cfg, simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestUpdateTopologyAllocs bounds what BenchmarkUpdateTopology/churn
// allocates per update. Generation runs in the workers that marshal, and
// no body is copied to be diffed, so an update keeps little more than what
// it publishes; a fleet-wide map of generated files, an address string per
// (file, peer) or a string copy of each patch's base would break either
// bound.
func TestUpdateTopologyAllocs(t *testing.T) {
	const maxBytes, maxAllocs = 16 << 20, 32_000
	base, updated := buildSpec(t, churnSpec(5)), buildSpec(t, churnSpec(6))
	const runs = 3
	var bytes, allocs uint64
	for i := 0; i < runs; i++ {
		c := newChurnController(t, base)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := c.UpdateTopology(updated); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		allocs += m1.Mallocs - m0.Mallocs
	}
	bytes, allocs = bytes/runs, allocs/runs
	t.Logf("churn update: %.1f MB, %d allocs", float64(bytes)/(1<<20), allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("churn update allocates %.1f MB in %d allocs, want at most %d MB and %d",
			float64(bytes)/(1<<20), allocs, maxBytes>>20, maxAllocs)
	}
}

// nopResponseWriter is a reusable ResponseWriter with a persistent header
// map, modeling a keep-alive connection: net/http reuses header storage
// across requests, so steady-state serving must not allocate any. It keeps
// the status and the body's length.
type nopResponseWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nopResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 8)
	}
	return w.h
}
func (w *nopResponseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *nopResponseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

// reset readies w for the next response, keeping the header map's storage.
func (w *nopResponseWriter) reset() {
	clear(w.h)
	w.code, w.n = 0, 0
}

// BenchmarkServeDelta is the converging-agent path: a conditional GET from
// a one-generation-stale agent answered with the cached patch body (226)
// instead of the full file.
func BenchmarkServeDelta(b *testing.B) {
	rig := newDeltaRig(b)
	benchServe(b, rig.h, "/pinglist/"+rig.name, map[string]string{
		"If-None-Match":   rig.oldETag,
		"A-IM":            DeltaIM,
		"Accept-Encoding": "gzip",
	}, http.StatusIMUsed)
}
