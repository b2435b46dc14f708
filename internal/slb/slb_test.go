package slb

import (
	"context"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/netlib"
)

// startBackends launches n echo servers and returns their addresses.
func startBackends(t *testing.T, n int) []*netlib.TCPServer {
	t.Helper()
	var out []*netlib.TCPServer
	for i := 0; i < n; i++ {
		s, err := netlib.NewTCPServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		out = append(out, s)
	}
	return out
}

func addrsOf(servers []*netlib.TCPServer) []string {
	var out []string
	for _, s := range servers {
		out = append(out, s.Addr().String())
	}
	return out
}

func TestNewRequiresBackends(t *testing.T) {
	if _, err := New("127.0.0.1:0", nil, Options{}); err == nil {
		t.Fatal("New accepted empty backend list")
	}
}

func TestProxiesTraffic(t *testing.T) {
	backends := startBackends(t, 2)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	p := &netlib.TCPProber{Timeout: 5 * time.Second}
	res, err := p.Probe(context.Background(), lb.Addr().String(), 256)
	if err != nil {
		t.Fatalf("probe through VIP: %v", err)
	}
	if res.PayloadRTT <= 0 {
		t.Fatal("no payload echoed through the VIP")
	}
}

func TestRoundRobinSpreadsLoad(t *testing.T) {
	backends := startBackends(t, 3)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// Probe with a payload: the echo comes back only through a forwarded
	// connection, so every probe is counted before the counts are read (a
	// bare connect returns once the balancer's kernel has accepted it).
	p := &netlib.TCPProber{Timeout: 5 * time.Second}
	for i := 0; i < 30; i++ {
		if _, err := p.Probe(context.Background(), lb.Addr().String(), 64); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	counts := lb.ForwardCounts()
	for addr, c := range counts {
		if c < 5 {
			t.Fatalf("backend %s received %d connections, want >=5 of 30", addr, c)
		}
	}
}

func TestFailedBackendLeavesRotation(t *testing.T) {
	backends := startBackends(t, 2)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	dead := backends[0]
	deadAddr := dead.Addr().String()
	dead.Close()

	// Wait for the health prober to notice.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		healthy := lb.HealthyBackends()
		if len(healthy) == 1 && healthy[0] != deadAddr {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h := lb.HealthyBackends(); len(h) != 1 || h[0] == deadAddr {
		t.Fatalf("dead backend still in rotation: %v", h)
	}

	// Traffic continues through the survivor.
	p := &netlib.TCPProber{Timeout: 5 * time.Second}
	for i := 0; i < 10; i++ {
		if _, err := p.Probe(context.Background(), lb.Addr().String(), 64); err != nil {
			t.Fatalf("probe with one dead backend: %v", err)
		}
	}
}

func TestBackendRecoveryRejoins(t *testing.T) {
	backends := startBackends(t, 1)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// Add a second backend that is initially down, then bring it up.
	s2, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2 := s2.Addr().String()
	s2.Close()
	lb.AddBackend(addr2)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(lb.HealthyBackends()) == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Revive on the same port.
	s3, err := netlib.NewTCPServer(addr2)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr2, err)
	}
	defer s3.Close()
	for time.Now().Before(deadline.Add(5 * time.Second)) {
		if len(lb.HealthyBackends()) == 2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("recovered backend never rejoined: %v", lb.HealthyBackends())
}

// TestOnStateChangeFiresOncePerTransition kills a backend and revives it,
// checking the hook reports each transition exactly once even though the
// prober re-confirms the same state every interval.
func TestOnStateChangeFiresOncePerTransition(t *testing.T) {
	backends := startBackends(t, 2)
	flapAddr := backends[0].Addr().String()

	type event struct {
		addr    string
		healthy bool
	}
	var mu sync.Mutex
	var events []event
	snapshot := func() []event {
		mu.Lock()
		defer mu.Unlock()
		return append([]event(nil), events...)
	}

	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{
		HealthInterval: 30 * time.Millisecond,
		OnStateChange: func(addr string, healthy bool) {
			mu.Lock()
			events = append(events, event{addr, healthy})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	backends[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(snapshot()) < 1 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := snapshot(); len(got) != 1 || got[0] != (event{flapAddr, false}) {
		t.Fatalf("events after kill = %v, want exactly [{%s false}]", got, flapAddr)
	}

	// Let several probe intervals pass: the still-down state must not
	// re-fire the hook.
	time.Sleep(150 * time.Millisecond)
	if got := snapshot(); len(got) != 1 {
		t.Fatalf("down state re-reported: %v", got)
	}

	revived, err := netlib.NewTCPServer(flapAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", flapAddr, err)
	}
	defer revived.Close()
	for time.Now().Before(deadline) && len(snapshot()) < 2 {
		time.Sleep(10 * time.Millisecond)
	}
	got := snapshot()
	if len(got) != 2 || got[1] != (event{flapAddr, true}) {
		t.Fatalf("events after revival = %v, want [... {%s true}]", got, flapAddr)
	}
}

func TestRemoveBackend(t *testing.T) {
	backends := startBackends(t, 2)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lb.RemoveBackend(backends[0].Addr().String())
	if h := lb.HealthyBackends(); len(h) != 1 {
		t.Fatalf("HealthyBackends = %v after remove", h)
	}
	// Removing a nonexistent address is a no-op.
	lb.RemoveBackend("127.0.0.1:9")
	if h := lb.HealthyBackends(); len(h) != 1 {
		t.Fatalf("HealthyBackends = %v", h)
	}
}

func TestCloseStopsVIP(t *testing.T) {
	backends := startBackends(t, 1)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{})
	if err != nil {
		t.Fatal(err)
	}
	vip := lb.Addr().String()
	if err := lb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := &netlib.TCPProber{Timeout: time.Second}
	if _, err := p.Probe(context.Background(), vip, 0); err == nil {
		t.Fatal("VIP still accepting after Close")
	}
}

func TestNoHealthyBackendsResetsClients(t *testing.T) {
	backends := startBackends(t, 1)
	lb, err := New("127.0.0.1:0", addrsOf(backends), Options{HealthInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	backends[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(lb.HealthyBackends()) > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	// With zero healthy backends the VIP accepts and then drops the
	// connection; a payload probe must fail rather than hang.
	p := &netlib.TCPProber{Timeout: 2 * time.Second}
	if _, err := p.Probe(context.Background(), lb.Addr().String(), 64); err == nil {
		t.Fatal("payload probe succeeded with no healthy backends")
	}
}

func BenchmarkVIPProxyProbe(b *testing.B) {
	backend, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	lb, err := New("127.0.0.1:0", []string{backend.Addr().String()}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer lb.Close()
	p := &netlib.TCPProber{Timeout: 5 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Probe(context.Background(), lb.Addr().String(), 128); err != nil {
			b.Fatal(err)
		}
	}
}
