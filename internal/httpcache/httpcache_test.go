package httpcache

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testBody(t *testing.T) *Body {
	t.Helper()
	content := bytes.Repeat([]byte("pingmesh read-side serving "), 40)
	b, err := New("application/json", content)
	if err != nil {
		t.Fatal(err)
	}
	if b.Gzip() == nil {
		t.Fatal("expected a gzip variant for a compressible body")
	}
	return b
}

func serve(t *testing.T, b *Body, hdr map[string]string) (*httptest.ResponseRecorder, Result) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	res := b.Serve(w, req)
	return w, res
}

// TestServeProtocol is the conditional-GET protocol table for the shared
// helper: revalidation, stale validators, wildcard and list forms, weak
// validators, and gzip negotiation.
func TestServeProtocol(t *testing.T) {
	b := testBody(t)
	etag := b.ETag()
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("ETag %q not a quoted strong validator", etag)
	}

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
		{"etag in list no space", map[string]string{"If-None-Match": `"deadbeef",` + etag}, http.StatusNotModified, false, false},
		{"stale etag", map[string]string{"If-None-Match": `"deadbeef"`}, http.StatusOK, false, true},
		{"unquoted garbage", map[string]string{"If-None-Match": "deadbeef"}, http.StatusOK, false, true},
		{"gzip accepted", map[string]string{"Accept-Encoding": "gzip"}, http.StatusOK, true, true},
		{"gzip among encodings", map[string]string{"Accept-Encoding": "br, gzip;q=0.8"}, http.StatusOK, true, true},
		{"gzip refused via q=0", map[string]string{"Accept-Encoding": "gzip;q=0"}, http.StatusOK, false, true},
		{"gzip refused via q=0 with spaces", map[string]string{"Accept-Encoding": "gzip; q=0"}, http.StatusOK, false, true},
		{"identity only", map[string]string{"Accept-Encoding": "identity"}, http.StatusOK, false, true},
		{"matching etag wins over gzip", map[string]string{"If-None-Match": etag, "Accept-Encoding": "gzip"}, http.StatusNotModified, false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w, res := serve(t, b, tc.hdr)
			if w.Code != tc.wantStatus || res.Status != tc.wantStatus {
				t.Fatalf("status = %d (result %d), want %d", w.Code, res.Status, tc.wantStatus)
			}
			if got := w.Header().Get("ETag"); got != etag {
				t.Fatalf("ETag header = %q, want %q", got, etag)
			}
			if got := w.Header().Get("Vary"); got != "Accept-Encoding" {
				t.Fatalf("Vary header = %q", got)
			}
			gotGzip := w.Header().Get("Content-Encoding") == "gzip"
			if gotGzip != tc.wantGzip || res.Gzipped != tc.wantGzip {
				t.Fatalf("gzip = %v (result %v), want %v", gotGzip, res.Gzipped, tc.wantGzip)
			}
			if tc.wantBody {
				body := w.Body.Bytes()
				if tc.wantGzip {
					zr, err := gzip.NewReader(bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					body, err = io.ReadAll(zr)
					if err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(body, b.Data()) {
					t.Fatalf("body mismatch: %d bytes vs %d", len(body), len(b.Data()))
				}
				if res.Bytes != w.Body.Len() {
					t.Fatalf("result bytes = %d, wrote %d", res.Bytes, w.Body.Len())
				}
			} else if w.Body.Len() != 0 || res.Bytes != 0 {
				t.Fatalf("304 carried %d body bytes (result %d)", w.Body.Len(), res.Bytes)
			}
		})
	}
}

func TestSmallBodySkipsGzip(t *testing.T) {
	b, err := New("text/plain", []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Gzip() != nil {
		t.Fatal("tiny body should have no gzip variant")
	}
	w, res := serve(t, b, map[string]string{"Accept-Encoding": "gzip"})
	if res.Gzipped || w.Header().Get("Content-Encoding") != "" {
		t.Fatal("served gzip without a variant")
	}
	if w.Body.String() != "ok" {
		t.Fatalf("body = %q", w.Body.String())
	}
}

func TestETagStability(t *testing.T) {
	a, _ := New("text/plain", []byte("same content same etag, any replica"))
	b, _ := New("text/plain", []byte("same content same etag, any replica"))
	c, _ := New("text/plain", []byte("different content"))
	if a.ETag() != b.ETag() {
		t.Fatalf("identical content produced ETags %q and %q", a.ETag(), b.ETag())
	}
	if a.ETag() == c.ETag() {
		t.Fatal("different content produced identical ETags")
	}
}

// nopResponseWriter is a reusable ResponseWriter for allocation guards: the
// header map persists across requests the way a keep-alive connection's
// does, so steady-state serve cost is what's measured.
type nopResponseWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *nopResponseWriter) Header() http.Header { return w.h }
func (w *nopResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *nopResponseWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// TestServeZeroAlloc proves the steady-state serve path — both the 304
// revalidation and the full cached 200 — allocates nothing (CI tier 3).
func TestServeZeroAlloc(t *testing.T) {
	b := testBody(t)
	w := &nopResponseWriter{h: make(http.Header)}

	req304 := httptest.NewRequest(http.MethodGet, "/x", nil)
	req304.Header.Set("If-None-Match", b.ETag())
	if allocs := testing.AllocsPerRun(200, func() {
		w.status, w.bytes = 0, 0
		b.Serve(w, req304)
		if w.status != http.StatusNotModified || w.bytes != 0 {
			t.Fatalf("status=%d bytes=%d", w.status, w.bytes)
		}
	}); allocs != 0 {
		t.Fatalf("304 serve allocates %v per op, want 0", allocs)
	}

	req200 := httptest.NewRequest(http.MethodGet, "/x", nil)
	req200.Header.Set("Accept-Encoding", "gzip")
	if allocs := testing.AllocsPerRun(200, func() {
		w.status, w.bytes = 0, 0
		b.Serve(w, req200)
		if w.bytes != len(b.Gzip()) {
			t.Fatalf("bytes=%d", w.bytes)
		}
	}); allocs != 0 {
		t.Fatalf("cached 200 serve allocates %v per op, want 0", allocs)
	}
}

// BenchmarkServeCachedBody measures the full-body cached serve path.
func BenchmarkServeCachedBody(b *testing.B) {
	body := MustNew("application/json", bytes.Repeat([]byte(`{"k":"v"},`), 200))
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Serve(w, req)
	}
	b.SetBytes(int64(len(body.Data())))
}

// BenchmarkServeNotModified measures the 304 revalidation path.
func BenchmarkServeNotModified(b *testing.B) {
	body := MustNew("application/json", bytes.Repeat([]byte(`{"k":"v"},`), 200))
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set("If-None-Match", body.ETag())
	w := &nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := body.Serve(w, req); res.Status != http.StatusNotModified {
			b.Fatalf("status = %d", res.Status)
		}
	}
}

// TestCompressorMatchesNew: a Compressor reused across a batch builds the
// bodies New builds one at a time — same gzip bytes, same ETag — whatever
// it compressed or inflated before, and every body owns its bytes (a later
// body does not overwrite an earlier one's variant in shared scratch).
func TestCompressorMatchesNew(t *testing.T) {
	var batch [][]byte
	for i := 0; i < 40; i++ {
		n := []int{0, 1, MinGzipSize - 1, MinGzipSize, 700, 9000, 70000}[i%7]
		data := make([]byte, n)
		for j := range data {
			data[j] = "pingmesh <Peer addr=\"10.0.0.1\"/>\n"[(j*(i+1)+j/97)%33]
		}
		if i%5 == 4 { // incompressible: the variant must be dropped
			for j := range data {
				data[j] = byte(j*j*31 + j>>3*17 + i)
			}
		}
		batch = append(batch, data)
	}
	var c Compressor
	var built []*Body
	var plain []byte
	for _, data := range batch {
		b, err := c.New("text/plain", data)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, b)
		if gz := b.Gzip(); gz != nil {
			// Interleave inflation: the writer and reader share scratch.
			if plain, err = c.Gunzip(plain[:0], gz); err != nil || !bytes.Equal(plain, data) {
				t.Fatalf("Gunzip of a %d-byte body: %v", len(data), err)
			}
		}
	}
	for i, data := range batch {
		want, err := New("text/plain", data)
		if err != nil {
			t.Fatal(err)
		}
		got := built[i]
		if got.ETag() != want.ETag() || !bytes.Equal(got.Gzip(), want.Gzip()) || (got.Gzip() == nil) != (want.Gzip() == nil) {
			t.Fatalf("body %d (%d bytes): batch-built body differs from New's", i, len(data))
		}
	}
	for _, bad := range [][]byte{nil, []byte("not gzip at all"), built[5].Gzip()[:40]} {
		if _, err := c.Gunzip(nil, bad); err == nil {
			t.Fatalf("Gunzip accepted %q", bad)
		}
	}
	if out, err := c.Gunzip([]byte("kept:"), built[5].Gzip()); err != nil || !bytes.Equal(out, append([]byte("kept:"), batch[5]...)) {
		t.Fatalf("Gunzip after an error, appending to a prefix: %v", err)
	}
}
