package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestPrintedPattern runs the printed report for the faults Figure 8 names
// and reads the heatmap's pattern line.
func TestPrintedPattern(t *testing.T) {
	for fault, want := range map[string]string{
		"podset-down":   "pattern: podset-down (podset 1)\n",
		"podset-storm":  "pattern: podset-failure (podset 1)\n",
		"spine-degrade": "pattern: spine-failure\n",
	} {
		var out bytes.Buffer
		if err := run([]string{"-fault", fault}, &out); err != nil {
			t.Fatalf("%s: %v", fault, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s: no %q in\n%s", fault, want, out.String())
		}
	}
	if err := run([]string{"-fault", "no-such-fault"}, io.Discard); err == nil {
		t.Error("unknown fault accepted")
	}
}

// TestServeCycles drives the serving mode's cycles against its portal: every
// cycle is served from the window grid, publishes a new epoch, and the
// spine-degrade fault injected before cycle 1 turns DC1's heatmap from
// normal to spine-failure.
func TestServeCycles(t *testing.T) {
	var log bytes.Buffer
	s, err := newSim(flag.NewFlagSet("test", flag.ContinueOnError),
		[]string{"-fault", "spine-degrade", "-fault-after", "1"}, &log)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.tb.NewPortal().Handler())
	defer srv.Close()
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return resp, body
	}

	lastEpoch := -1
	for c, want := range []string{"normal", "spine-failure", "spine-failure"} {
		if _, err := s.cycle(c, false); err != nil {
			t.Fatal(err)
		}
		if _, body := get("/metrics"); !strings.Contains(string(body), "\npingmesh_dsa_cycle_offgrid_rescans 0\n") {
			t.Fatalf("cycle %d: /metrics lacks pingmesh_dsa_cycle_offgrid_rescans 0", c)
		}
		resp, body := get("/heatmap/DC1")
		epoch, err := strconv.Atoi(resp.Header.Get("X-Pingmesh-Epoch"))
		if err != nil || epoch <= lastEpoch {
			t.Fatalf("cycle %d: epoch %q after %d", c, resp.Header.Get("X-Pingmesh-Epoch"), lastEpoch)
		}
		lastEpoch = epoch
		var hm struct{ Pattern string }
		if err := json.Unmarshal(body, &hm); err != nil {
			t.Fatal(err)
		}
		if hm.Pattern != want {
			t.Errorf("cycle %d: pattern %q, want %q", c, hm.Pattern, want)
		}
	}
	if got := log.String(); got != "injected: spine tier degraded (+10ms)\n" {
		t.Errorf("log %q", got)
	}
}
