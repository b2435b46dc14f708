package pingmesh_test

// End-to-end portal test: a live simulated fleet feeds the DSA pipeline,
// every analysis cycle republishes the portal snapshot, and real HTTP
// clients watch a Figure 8(d) spine failure appear on /heatmap and flip
// /triage's verdict to "network" — while unchanged reads revalidate to
// 304 with zero body bytes.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pingmesh"
	"pingmesh/internal/netsim"
)

// getJSON fetches a URL and decodes the JSON body into v, returning the
// response for header checks.
func getJSON(t *testing.T, client *http.Client, url string, v any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v in %q", url, err, body)
		}
	}
	return resp
}

func TestPortalEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated fleet run")
	}
	tb, err := pingmesh.NewSimTestbed(pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}}, pingmesh.SimOptions{
		Seed:             1234,
		HeatmapMinProbes: 3,
		// The low-variance DC1 profile keeps sparse testbed cells green when
		// healthy; the default cycled profiles include long-tail DCs whose
		// max-of-few-samples p99 reads as noise.
		Profiles: []netsim.Profile{netsim.DC1Profile()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := tb.NewPortal()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	client := srv.Client()

	// cycle probes one simulated hour and runs the full analysis, which
	// republishes the portal snapshot through the OnCycle hook.
	cycle := func() {
		t.Helper()
		from := tb.Clock.Now()
		if err := tb.RunWindow(time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := tb.AnalyzeWindow(from, tb.Clock.Now()); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy fleet: first cycle publishes epoch > 0 with a normal heatmap.
	cycle()
	if p.Epoch() == 0 {
		t.Fatal("analysis cycle did not publish a portal epoch")
	}
	var hm struct {
		Pattern string    `json:"pattern"`
		Pods    []string  `json:"pods"`
		P99Ns   [][]int64 `json:"p99_ns"`
	}
	getJSON(t, client, srv.URL+"/heatmap/DC1", &hm)
	if hm.Pattern != "normal" || len(hm.Pods) != 9 {
		t.Fatalf("healthy heatmap: pattern=%q pods=%d", hm.Pattern, len(hm.Pods))
	}
	var triage pingmesh.TriageResult
	getJSON(t, client, srv.URL+"/triage?src=d0.s0.p0&dst=d0.s1.p1", &triage)
	if triage.Verdict != "not-network" {
		t.Fatalf("healthy triage verdict = %q (%s)", triage.Verdict, triage.Reason)
	}

	// Conditional GET: with no new DSA cycle the content hash is stable, so
	// a revalidating poll costs 304 and zero body bytes.
	resp := getJSON(t, client, srv.URL+"/sla/dc/DC1", nil)
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on /sla/dc/DC1")
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/sla/dc/DC1", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation = %d with %d body bytes, want 304 with 0", resp.StatusCode, len(body))
	}

	// Spine failure (Figure 8(d)): cross-podset traffic takes +10ms while
	// intra-podset traffic bypasses the broken tier. Poll /heatmap until
	// the classifier reports it.
	tb.Net.SetTierDegraded(0, pingmesh.TierSpine, netsim.Degradation{ExtraLatencyMean: 10 * time.Millisecond})
	pattern := ""
	for i := 0; i < 5 && pattern != "spine-failure"; i++ {
		cycle()
		getJSON(t, client, srv.URL+"/heatmap/DC1", &hm)
		pattern = hm.Pattern
	}
	if pattern != "spine-failure" {
		t.Fatalf("heatmap never classified spine-failure (last pattern %q)", pattern)
	}

	// The same question now gets the opposite answer, with evidence.
	getJSON(t, client, srv.URL+"/triage?src=d0.s0.p0&dst=d0.s1.p1", &triage)
	if triage.Verdict != "network" {
		t.Fatalf("incident triage verdict = %q (%s)", triage.Verdict, triage.Reason)
	}

	// The incident also shows up on the alert feed and the scrape surface.
	var alerts []struct {
		Scope string `json:"scope"`
	}
	getJSON(t, client, srv.URL+"/alerts", &alerts)
	if len(alerts) == 0 {
		t.Fatal("no alerts after spine failure")
	}
	mResp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mBody, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{
		"pingmesh_portal_epoch " + fmt.Sprint(p.Epoch()),
		"pingmesh_portal_not_modified 1",
		"pingmesh_controller_", // the controller registry rides along
	} {
		if !strings.Contains(string(mBody), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
