package controller

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/simclock"
	"pingmesh/internal/slb"
	"pingmesh/internal/topology"
)

func newController(t *testing.T) (*Controller, *topology.Topology) {
	t.Helper()
	top := topology.SmallTestbed()
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return c, top
}

func TestServesPinglistForEveryServer(t *testing.T) {
	c, top := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	for _, s := range top.Servers() {
		f, err := client.Fetch(context.Background(), s.Name)
		if err != nil {
			t.Fatalf("Fetch(%s): %v", s.Name, err)
		}
		if f.Server != s.Name {
			t.Fatalf("got pinglist for %q, want %q", f.Server, s.Name)
		}
		if len(f.Peers) == 0 {
			t.Fatalf("empty pinglist for %s", s.Name)
		}
	}
	if c.PinglistCount() != top.NumServers() {
		t.Fatalf("PinglistCount = %d", c.PinglistCount())
	}
}

func TestUnknownServer404(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/pinglist/not-a-server")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	client := &Client{BaseURL: srv.URL}
	_, err = client.Fetch(context.Background(), "not-a-server")
	var noPL *ErrNoPinglist
	if !errors.As(err, &noPL) {
		t.Fatalf("Fetch error = %v, want ErrNoPinglist", err)
	}
}

// TestMethodNotAllowed: every route is read-only, so any method but GET
// and HEAD is a 405 naming the allowed ones, mirroring the portal.
func TestMethodNotAllowed(t *testing.T) {
	c, top := newController(t)
	h := c.Handler()
	for _, path := range []string{"/pinglist/" + top.Server(0).Name, "/pinglist/nope", "/version", "/healthz"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("x")))
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
				t.Errorf("%s %s = %d, Allow %q; want 405, Allow \"GET, HEAD\"", method, path, rec.Code, rec.Header().Get("Allow"))
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/version", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD /version = %d", rec.Code)
	}
}

func TestVersionBumpsOnUpdate(t *testing.T) {
	c, top := newController(t)
	v1 := c.Version()
	if err := c.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	if c.Version() == v1 {
		t.Fatalf("version unchanged after UpdateTopology: %s", v1)
	}
}

func TestClearFailsClosed(t *testing.T) {
	c, top := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	c.Clear()
	if c.PinglistCount() != 0 {
		t.Fatal("pinglists remain after Clear")
	}
	client := &Client{BaseURL: srv.URL}
	_, err := client.Fetch(context.Background(), top.Server(0).Name)
	var noPL *ErrNoPinglist
	if !errors.As(err, &noPL) {
		t.Fatalf("after Clear, Fetch error = %v, want ErrNoPinglist", err)
	}
	// Recovery: regenerate and serve again.
	if err := c.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fetch(context.Background(), top.Server(0).Name); err != nil {
		t.Fatalf("Fetch after regenerate: %v", err)
	}
}

func TestHealthAndVersionEndpoints(t *testing.T) {
	c, _ := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for _, path := range []string{"/healthz", "/version"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestSaveToDir(t *testing.T) {
	c, top := newController(t)
	dir := t.TempDir()
	if err := c.SaveToDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != top.NumServers() {
		t.Fatalf("wrote %d files, want %d", len(entries), top.NumServers())
	}
	data, err := os.ReadFile(filepath.Join(dir, top.Server(0).Name+".xml"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<Pinglist") {
		t.Fatal("saved file is not a pinglist")
	}
}

func TestMetricsTrackServes(t *testing.T) {
	c, top := newController(t)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	client.Fetch(context.Background(), top.Server(0).Name)
	client.Fetch(context.Background(), "nope")
	snap := c.Metrics().Snapshot()
	if snap.Counters["controller.pinglist_serves"] != 1 {
		t.Fatalf("serves = %d", snap.Counters["controller.pinglist_serves"])
	}
	if snap.Counters["controller.pinglist_misses"] != 1 {
		t.Fatalf("misses = %d", snap.Counters["controller.pinglist_misses"])
	}
}

// TestReplicasBehindSLB verifies the §3.3.2 deployment: identical stateless
// replicas behind a VIP; agents keep fetching when one replica dies.
func TestReplicasBehindSLB(t *testing.T) {
	top := topology.SmallTestbed()
	cfg := core.DefaultGeneratorConfig()
	mk := func() (*Controller, *httptest.Server) {
		c, err := New(top, cfg, simclock.NewSim(time.Unix(1750000000, 0)))
		if err != nil {
			t.Fatal(err)
		}
		return c, httptest.NewServer(c.Handler())
	}
	_, s1 := mk()
	defer s1.Close()
	_, s2 := mk()
	defer s2.Close()

	lb, err := slb.New("127.0.0.1:0", []string{
		s1.Listener.Addr().String(),
		s2.Listener.Addr().String(),
	}, slb.Options{HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	client := &Client{BaseURL: "http://" + lb.Addr().String()}
	name := top.Server(0).Name
	if _, err := client.Fetch(context.Background(), name); err != nil {
		t.Fatalf("Fetch through VIP: %v", err)
	}

	// Kill one replica; fetches must keep succeeding.
	s1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(lb.HealthyBackends()) == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Fetch(context.Background(), name); err != nil {
			t.Fatalf("Fetch after replica death: %v", err)
		}
	}
}
