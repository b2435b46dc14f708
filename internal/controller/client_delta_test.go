package controller

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"pingmesh/internal/pinglist"
)

// TestClientAppliesDelta is the end-to-end protocol test: client fetches
// gen-1 in full, the controller rolls a topology update, and the next
// revalidation comes back as a 226 patch the client applies and verifies
// — yielding exactly the file a from-scratch download would.
func TestClientAppliesDelta(t *testing.T) {
	rig := newDeltaRig(t)
	srv := httptest.NewServer(rig.h)
	defer srv.Close()

	ctx := context.Background()
	cl := &Client{BaseURL: srv.URL}

	// The rig already rolled gen-2, so roll the client through the same
	// sequence: reset to a fresh controller state is not possible — instead
	// fetch gen-2 in full, roll gen-3, and revalidate.
	first, err := cl.FetchDetail(ctx, rig.name)
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified || first.Delta {
		t.Fatalf("first fetch should be a full download: %+v", first)
	}
	if err := rig.c.UpdateTopology(buildTop(t, 10)); err != nil {
		t.Fatal(err)
	}

	res, err := cl.FetchDetail(ctx, rig.name)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta {
		t.Fatalf("revalidation after update not served by delta: %+v", res)
	}
	if res.BytesOnWire == 0 || res.BytesOnWire >= first.BytesOnWire {
		t.Fatalf("delta bytes %d vs full %d", res.BytesOnWire, first.BytesOnWire)
	}
	if err := res.File.Validate(); err != nil {
		t.Fatal(err)
	}

	// The patched file must equal a from-scratch download byte-for-byte
	// (marshaled form — XMLName and time representation internals differ
	// between parsed and patched structs without affecting the content).
	fresh, err := (&Client{BaseURL: srv.URL}).Fetch(ctx, rig.name)
	if err != nil {
		t.Fatal(err)
	}
	gotData, err := pinglist.Marshal(res.File)
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := pinglist.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, wantData) {
		t.Fatal("patched file differs from fresh download")
	}

	st := cl.Stats()
	if st.DeltaApplied != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Next revalidation: the patched etag is current, so a plain 304.
	res3, err := cl.FetchDetail(ctx, rig.name)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.NotModified {
		t.Fatalf("post-patch revalidation not a 304: %+v", res3)
	}
}

// TestClientDeltaFallback feeds the client a corrupt 226 and checks the
// contract: it must recover with an unconditional full download, never
// surface a wrong pinglist, and report the wasted patch and its bytes.
func TestClientDeltaFallback(t *testing.T) {
	rig := newDeltaRig(t)
	const garbage = "this is not a DEFLATE stream"
	sabotage := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			w.Header().Set("IM", DeltaIM)
			w.Header().Set("Content-Type", "application/xml")
			w.WriteHeader(http.StatusIMUsed)
			w.Write([]byte(garbage))
			return
		}
		rig.h.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(sabotage)
	defer srv.Close()

	ctx := context.Background()
	cl := &Client{BaseURL: srv.URL}
	first, err := cl.FetchDetail(ctx, rig.name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.FetchDetail(ctx, rig.name) // conditional → garbage 226
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if res.Delta || res.NotModified {
		t.Fatalf("corrupt delta did not fall back to full: %+v", res)
	}
	if err := res.File.Validate(); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.DeltaFallbacks != 1 {
		t.Fatalf("DeltaFallbacks = %d, want 1", st.DeltaFallbacks)
	}
	// The same full body again, after the patch that was thrown away.
	if !res.DeltaFallback || res.BytesOnWire != first.BytesOnWire+int64(len(garbage)) {
		t.Fatalf("fallback result %+v, want DeltaFallback and %d + %d bytes", res, first.BytesOnWire, len(garbage))
	}
	if st.BytesOnWire != first.BytesOnWire+res.BytesOnWire {
		t.Fatalf("BytesOnWire = %d, want the two results' %d + %d", st.BytesOnWire, first.BytesOnWire, res.BytesOnWire)
	}
}
