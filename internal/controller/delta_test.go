package controller

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/httpcache"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// deltaSpec is a testbed whose DC1 can grow by whole podsets — the
// append-only mutation a rolling topology update performs, which keeps
// existing server addresses stable so deltas stay small. DC1 has 48 pods
// at 8 podsets, so a pinglist holds ≈54 peers, as on the benchmark's
// fleet_churn topology.
func deltaSpec(dc1Podsets int) topology.Spec {
	return topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: dc1Podsets, PodsPerPodset: 6, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}}
}

func buildTop(t testing.TB, dc1Podsets int) *topology.Topology {
	t.Helper()
	top, err := topology.Build(deltaSpec(dc1Podsets))
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// deltaRig builds a controller on the 2-podset topology, remembers one
// server's gen-1 body, then rolls a topology update (appending a podset)
// so gen-1 sits in the ring.
type deltaRig struct {
	c       *Controller
	h       http.Handler
	name    string
	oldETag string
	oldBody []byte
}

func newDeltaRig(t testing.TB) *deltaRig {
	t.Helper()
	top := buildTop(t, 8)
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	rig := &deltaRig{c: c, h: c.Handler(), name: top.Server(0).Name}
	rig.oldETag = c.ETag(rig.name)
	w := serveOnce(rig.h, "/pinglist/"+rig.name, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("initial fetch: status %d", w.Code)
	}
	rig.oldBody = w.Body.Bytes()
	if err := c.UpdateTopology(buildTop(t, 9)); err != nil {
		t.Fatal(err)
	}
	return rig
}

func TestDeltaServe226(t *testing.T) {
	rig := newDeltaRig(t)
	newETag := rig.c.ETag(rig.name)
	if newETag == rig.oldETag {
		t.Fatal("topology update did not change the pinglist")
	}

	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{
		"If-None-Match": rig.oldETag,
		"A-IM":          DeltaIM,
	})
	if w.Code != http.StatusIMUsed {
		t.Fatalf("status %d, want 226", w.Code)
	}
	if got := w.Header().Get("IM"); got != DeltaIM {
		t.Fatalf("IM header %q, want %q", got, DeltaIM)
	}
	if got := w.Header().Get("ETag"); got != newETag {
		t.Fatalf("226 ETag %q, want target etag %q", got, newETag)
	}
	if got := w.Header().Get("Content-Type"); got != "application/xml" {
		t.Fatalf("Content-Type %q, want the rebuilt instance's application/xml", got)
	}
	if got := w.Header().Get("Content-Encoding"); got != "" {
		t.Fatalf("Content-Encoding %q on a 226: the delta is its own compression", got)
	}
	if got := w.Header().Get("X-Pingmesh-Version"); got != rig.c.Version() {
		t.Fatalf("version header %q, want %q", got, rig.c.Version())
	}

	// Applied to the gen-1 body, the delta must rebuild the gen-2
	// body byte for byte.
	patched, err := pinglist.Patch(rig.oldBody, w.Body.Bytes())
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	full := serveOnce(rig.h, "/pinglist/"+rig.name, nil)
	if !bytes.Equal(patched, full.Body.Bytes()) {
		t.Fatal("patched bytes differ from full body")
	}
	if httpcache.ETagFor(patched) != newETag {
		t.Fatal("patched bytes hash to a different etag")
	}

	// And it must be much smaller than the identity full body.
	if w.Body.Len()*4 > full.Body.Len() {
		t.Fatalf("delta %dB vs full %dB: not meaningfully smaller", w.Body.Len(), full.Body.Len())
	}
}

// TestDeltaServeGzipNegotiation: a delta is already compressed, so the 226
// is the same bytes, with no Content-Encoding, whether or not the agent
// accepts gzip.
func TestDeltaServeGzipNegotiation(t *testing.T) {
	rig := newDeltaRig(t)
	hdr := map[string]string{"If-None-Match": rig.oldETag, "A-IM": DeltaIM}
	plain := serveOnce(rig.h, "/pinglist/"+rig.name, hdr)
	hdr["Accept-Encoding"] = "gzip"
	w := serveOnce(rig.h, "/pinglist/"+rig.name, hdr)
	if w.Code != http.StatusIMUsed || plain.Code != http.StatusIMUsed {
		t.Fatalf("status %d and %d, want 226", w.Code, plain.Code)
	}
	if w.Header().Get("Content-Encoding") != "" || !bytes.Equal(w.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatalf("gzip-accepting agent got Content-Encoding %q and %d bytes, another %d",
			w.Header().Get("Content-Encoding"), w.Body.Len(), plain.Body.Len())
	}
}

func TestDeltaRequiresAIM(t *testing.T) {
	rig := newDeltaRig(t)
	// Stale validator but no A-IM: the agent doesn't speak deltas, so it
	// gets the full body exactly as before this PR.
	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{"If-None-Match": rig.oldETag})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 full body", w.Code)
	}
}

func TestDeltaCurrentETagStill304(t *testing.T) {
	rig := newDeltaRig(t)
	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{
		"If-None-Match": rig.c.ETag(rig.name),
		"A-IM":          DeltaIM,
	})
	if w.Code != http.StatusNotModified {
		t.Fatalf("status %d, want 304", w.Code)
	}
}

func TestDeltaUnknownBaseFallsBackToFull(t *testing.T) {
	rig := newDeltaRig(t)
	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{
		"If-None-Match": `"deadbeefdeadbeef"`,
		"A-IM":          DeltaIM,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 full fallback", w.Code)
	}
	if got := rig.c.Metrics().Counter("controller.delta_fallback_full").Value(); got == 0 {
		t.Fatal("fallback not counted")
	}
}

// TestDeltaRingEviction rolls generations until gen-1 falls off the ring:
// while it is the oldest retained generation its holders still get a
// patch; one generation later they get the full body, counted as a
// fallback.
func TestDeltaRingEviction(t *testing.T) {
	rig := newDeltaRig(t) // gen-1 is one generation back
	fromGen1 := map[string]string{"If-None-Match": rig.oldETag, "A-IM": DeltaIM}
	podsets := 10
	for back := 2; back <= DefaultDeltaRing; back++ {
		if err := rig.c.UpdateTopology(buildTop(t, podsets)); err != nil {
			t.Fatal(err)
		}
		podsets++
	}
	if w := serveOnce(rig.h, "/pinglist/"+rig.name, fromGen1); w.Code != http.StatusIMUsed {
		t.Fatalf("base %d generations back: status %d, want 226", DefaultDeltaRing, w.Code)
	}
	fallbacks := rig.c.Metrics().Counter("controller.delta_fallback_full")
	before := fallbacks.Value()
	if err := rig.c.UpdateTopology(buildTop(t, podsets)); err != nil {
		t.Fatal(err)
	}
	w := serveOnce(rig.h, "/pinglist/"+rig.name, fromGen1)
	if w.Code != http.StatusOK {
		t.Fatalf("evicted base: status %d, want 200 full", w.Code)
	}
	if fallbacks.Value() != before+1 {
		t.Fatalf("delta_fallback_full = %d, want %d", fallbacks.Value(), before+1)
	}
}

// TestServeFetchMatchesHandler pins the in-process fetch API (what the
// pipeline benchmark's simulated agents call) to the HTTP handler's
// decision procedure and byte accounting.
func TestServeFetchMatchesHandler(t *testing.T) {
	rig := newDeltaRig(t)
	newETag := rig.c.ETag(rig.name)

	if out := rig.c.ServeFetch("no-such-server", "", true); out.Kind != FetchNotFound {
		t.Fatalf("unknown server: kind %d", out.Kind)
	}
	if out := rig.c.ServeFetch(rig.name, newETag, true); out.Kind != FetchNotModified || out.BytesOnWire != 0 {
		t.Fatalf("current etag: %+v", out)
	}

	out := rig.c.ServeFetch(rig.name, rig.oldETag, true)
	if out.Kind != FetchDelta || out.ETag != newETag {
		t.Fatalf("ringed etag: %+v", out)
	}
	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{
		"If-None-Match": rig.oldETag, "A-IM": DeltaIM, "Accept-Encoding": "gzip",
	})
	if int64(w.Body.Len()) != out.BytesOnWire {
		t.Fatalf("delta wire bytes: ServeFetch %d, HTTP %d", out.BytesOnWire, w.Body.Len())
	}

	out = rig.c.ServeFetch(rig.name, rig.oldETag, false)
	if out.Kind != FetchFull || out.ETag != newETag {
		t.Fatalf("delta refused: %+v", out)
	}
	wf := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{"Accept-Encoding": "gzip"})
	if int64(wf.Body.Len()) != out.BytesOnWire {
		t.Fatalf("full wire bytes: ServeFetch %d, HTTP %d", out.BytesOnWire, wf.Body.Len())
	}
}

// TestDeltaServeCachedZeroAlloc is the tier-3 guard on serving: a cached
// answer — a 304, a full body, a delta built with its generation — must
// allocate nothing, from the handler's entry to the last byte written.
func TestDeltaServeCachedZeroAlloc(t *testing.T) {
	rig := newDeltaRig(t)
	for _, tc := range []struct {
		name string
		hdr  map[string]string
		want int
	}{
		{"304", map[string]string{"If-None-Match": rig.c.ETag(rig.name), "A-IM": DeltaIM}, http.StatusNotModified},
		{"200", map[string]string{"Accept-Encoding": "gzip"}, http.StatusOK},
		{"226", map[string]string{"If-None-Match": rig.oldETag, "A-IM": "gzip, " + DeltaIM, "Accept-Encoding": "gzip"}, http.StatusIMUsed},
	} {
		req := httptest.NewRequest(http.MethodGet, "/pinglist/"+rig.name, nil)
		for k, v := range tc.hdr {
			req.Header.Set(k, v)
		}
		w := &nopResponseWriter{}
		rig.h.ServeHTTP(w, req)
		if w.code != tc.want {
			t.Fatalf("%s: status %d", tc.name, w.code)
		}
		if n := testing.AllocsPerRun(200, func() {
			w.reset()
			rig.h.ServeHTTP(w, req)
		}); n != 0 {
			t.Errorf("%s: Handler allocates %v allocs/op, want 0", tc.name, n)
		}
	}
}
