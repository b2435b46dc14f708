package controller

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/simclock"
)

// get issues one raw GET against the handler with optional headers.
func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestConditionalGetProtocol is the table-driven protocol test: ETag
// revalidation, stale validators, wildcard and list forms, and gzip
// negotiation against the raw handler.
func TestConditionalGetProtocol(t *testing.T) {
	c, top := newController(t)
	h := c.Handler()
	name := top.Server(0).Name
	path := "/pinglist/" + name
	etag := c.ETag(name)
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("controller ETag = %q, want quoted strong ETag", etag)
	}

	plain := get(t, h, path, nil)
	if plain.Code != http.StatusOK {
		t.Fatalf("unconditional GET = %d", plain.Code)
	}
	body := plain.Body.Bytes()

	tests := []struct {
		name       string
		hdr        map[string]string
		wantStatus int
		wantGzip   bool
		wantBody   bool
	}{
		{"no validator", nil, http.StatusOK, false, true},
		{"matching etag", map[string]string{"If-None-Match": etag}, http.StatusNotModified, false, false},
		{"weak form of matching etag", map[string]string{"If-None-Match": "W/" + etag}, http.StatusNotModified, false, false},
		{"wildcard", map[string]string{"If-None-Match": "*"}, http.StatusNotModified, false, false},
		{"etag in list", map[string]string{"If-None-Match": `"deadbeef", ` + etag}, http.StatusNotModified, false, false},
		{"stale etag", map[string]string{"If-None-Match": `"deadbeef"`}, http.StatusOK, false, true},
		{"unquoted garbage", map[string]string{"If-None-Match": "deadbeef"}, http.StatusOK, false, true},
		{"gzip accepted", map[string]string{"Accept-Encoding": "gzip"}, http.StatusOK, true, true},
		{"gzip among encodings", map[string]string{"Accept-Encoding": "br, gzip;q=0.8"}, http.StatusOK, true, true},
		{"gzip refused via q=0", map[string]string{"Accept-Encoding": "gzip;q=0"}, http.StatusOK, false, true},
		{"identity only", map[string]string{"Accept-Encoding": "identity"}, http.StatusOK, false, true},
		{"matching etag wins over gzip", map[string]string{"If-None-Match": etag, "Accept-Encoding": "gzip"}, http.StatusNotModified, false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := get(t, h, path, tc.hdr)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", w.Code, tc.wantStatus)
			}
			if got := w.Header().Get("ETag"); got != etag {
				t.Fatalf("ETag header = %q, want %q", got, etag)
			}
			gotGzip := w.Header().Get("Content-Encoding") == "gzip"
			if gotGzip != tc.wantGzip {
				t.Fatalf("Content-Encoding gzip = %v, want %v", gotGzip, tc.wantGzip)
			}
			switch {
			case !tc.wantBody:
				if w.Body.Len() != 0 {
					t.Fatalf("304 carried a %d-byte body", w.Body.Len())
				}
			case tc.wantGzip:
				zr, err := gzip.NewReader(w.Body)
				if err != nil {
					t.Fatalf("gzip body: %v", err)
				}
				got, err := io.ReadAll(zr)
				if err != nil || !bytes.Equal(got, body) {
					t.Fatalf("gzip body does not decompress to the plain body (err %v)", err)
				}
				if w.Body.Len() >= len(body) {
					t.Fatalf("gzip body (%d bytes) not smaller than plain (%d)", w.Body.Len(), len(body))
				}
			default:
				if !bytes.Equal(w.Body.Bytes(), body) {
					t.Fatal("plain body changed between requests")
				}
			}
		})
	}
}

// TestETagChangesWithGeneration: a topology update must invalidate old
// validators — a stale ETag gets a 200 with the new ETag.
func TestETagChangesWithGeneration(t *testing.T) {
	c, top := newController(t)
	h := c.Handler()
	name := top.Server(0).Name
	path := "/pinglist/" + name
	old := c.ETag(name)

	if err := c.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	// The new generation stamps a new version string, so content and ETag
	// both change.
	w := get(t, h, path, map[string]string{"If-None-Match": old})
	if w.Code != http.StatusOK {
		t.Fatalf("stale ETag got %d, want 200", w.Code)
	}
	fresh := w.Header().Get("ETag")
	if fresh == old || fresh == "" {
		t.Fatalf("ETag not rotated: old %q new %q", old, fresh)
	}
	if fresh != c.ETag(name) {
		t.Fatalf("served ETag %q disagrees with state %q", fresh, c.ETag(name))
	}
	// ETags agree across replicas: a second controller at the same
	// generation must hash identically.
	c2, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	if c2.ETag(name) != c.ETag(name) {
		t.Fatalf("replica ETags disagree: %q vs %q", c2.ETag(name), c.ETag(name))
	}
}

// TestClientRevalidates: the full client path — first fetch downloads,
// second revalidates with a 304 and returns the cached file, an update
// invalidates, a Clear drops the cache entry.
func TestClientRevalidates(t *testing.T) {
	c, top := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	name := top.Server(0).Name
	ctx := context.Background()

	first, err := client.FetchDetail(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified {
		t.Fatal("first fetch cannot be a revalidation")
	}
	if first.BytesOnWire <= 0 {
		t.Fatal("first fetch reported no wire bytes")
	}

	second, err := client.FetchDetail(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if !second.NotModified {
		t.Fatal("unchanged pinglist re-fetch was not a 304 revalidation")
	}
	if second.BytesOnWire != 0 {
		t.Fatalf("304 carried %d body bytes", second.BytesOnWire)
	}
	a, _ := pinglist.Marshal(first.File)
	b, _ := pinglist.Marshal(second.File)
	if !bytes.Equal(a, b) {
		t.Fatal("cached file differs from downloaded file")
	}
	snap := c.Metrics().Snapshot()
	if snap.Counters["controller.not_modified"] != 1 {
		t.Fatalf("controller.not_modified = %d", snap.Counters["controller.not_modified"])
	}
	if snap.Counters["controller.bytes_served"] <= 0 {
		t.Fatal("controller.bytes_served not counted")
	}
	stats := client.Stats()
	if stats.Fetches != 2 || stats.NotModified != 1 {
		t.Fatalf("client stats = %+v", stats)
	}

	// New generation: revalidation misses, full body downloads again.
	if err := c.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	third, err := client.FetchDetail(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if third.NotModified {
		t.Fatal("fetch after topology update must not be a 304")
	}
	if third.File.Version == first.File.Version {
		t.Fatal("version did not advance")
	}

	// Clear: 404 must drop the cache so a later regenerate refetches fully.
	c.Clear()
	if _, err := client.FetchDetail(ctx, name); err == nil {
		t.Fatal("fetch after Clear should fail")
	}
	if err := c.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	fourth, err := client.FetchDetail(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.NotModified {
		t.Fatal("fetch after cache drop must be a full download")
	}
}

// TestClientFallsBackWithoutETag: against a server that sends neither
// ETags nor gzip, the client must keep working — every fetch is a full
// download and no conditional header is ever sent.
func TestClientFallsBackWithoutETag(t *testing.T) {
	c, top := newController(t)
	name := top.Server(0).Name
	plain := get(t, c.Handler(), "/pinglist/"+name, nil).Body.Bytes()

	sawConditional := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			sawConditional = true
		}
		// No ETag, no Content-Encoding: a legacy controller.
		w.Header().Set("Content-Type", "application/xml")
		w.Write(plain)
	}))
	defer srv.Close()

	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := client.FetchDetail(ctx, name)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if res.NotModified {
			t.Fatalf("fetch %d claimed revalidation without ETags", i)
		}
		if res.File.Server != name {
			t.Fatalf("fetch %d: wrong file %q", i, res.File.Server)
		}
	}
	if sawConditional {
		t.Fatal("client sent If-None-Match with no cached ETag")
	}
	if s := client.Stats(); s.Fetches != 3 || s.NotModified != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestClientRejectsForeignBody: a 200 body that is the same document in
// another XML spelling than Marshal's fails the fetch like any bad body,
// and nothing is cached from it.
func TestClientRejectsForeignBody(t *testing.T) {
	c, top := newController(t)
	name := top.Server(0).Name
	f, err := pinglist.Unmarshal(get(t, c.Handler(), "/pinglist/"+name, nil).Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	compact, err := xml.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"compact"`)
		w.Write(compact)
	}))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	if res, err := client.FetchDetail(context.Background(), name); err == nil {
		t.Fatalf("foreign body accepted: %+v", res)
	}
	if _, ok := client.cachedETag(name); ok || client.Stats().Fetches != 0 {
		t.Fatalf("rejected body left state behind: stats %+v", client.Stats())
	}
}

// TestClientDisableCache: with the cache off, every fetch is
// unconditional even against an ETag-serving controller.
func TestClientDisableCache(t *testing.T) {
	c, top := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, DisableCache: true}
	name := top.Server(0).Name
	for i := 0; i < 2; i++ {
		res, err := client.FetchDetail(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if res.NotModified {
			t.Fatal("cache-disabled client got a revalidation")
		}
	}
	if n := c.Metrics().Snapshot().Counters["controller.not_modified"]; n != 0 {
		t.Fatalf("controller saw %d conditional hits from cache-disabled client", n)
	}
}

// TestClientRejectsSpurious304: a buggy server that answers 304 to
// requests the client has no cached body for must produce a clean error
// after one unconditional retry — never a nil pinglist or an infinite
// retry loop.
func TestClientRejectsSpurious304(t *testing.T) {
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()

	client := &Client{BaseURL: srv.URL}
	_, err := client.FetchDetail(context.Background(), "srv-0")
	if err == nil || !strings.Contains(err.Error(), "304") {
		t.Fatalf("err = %v, want spurious-304 error", err)
	}
	if requests != 2 {
		t.Fatalf("client made %d requests, want exactly 2 (conditional-free retry, then give up)", requests)
	}
}
