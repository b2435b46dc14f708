package pingmesh

// End-to-end control-plane failover test: two real Controller replicas —
// deterministic generation makes them byte-identical — behind a real slb
// VIP, with a fleet of controller.Clients in a fast refresh storm. One
// replica is killed right as a topology update publishes. The SLB health
// prober must eject the dead replica (observed via OnStateChange), every
// client must converge to the new generation within one refresh interval,
// and no client may ever observe a version outside the two generations in
// play.

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/simclock"
	"pingmesh/internal/slb"
	"pingmesh/internal/topology"
)

func TestControlPlaneReplicaFailover(t *testing.T) {
	top := topology.SmallTestbed()
	// One sim clock for both replicas: identical Generated timestamps keep
	// the marshaled pinglists — and so the ETags — byte-identical, which
	// is what lets clients revalidate seamlessly across replicas.
	clock := simclock.NewSim(time.Unix(1751328000, 0))
	var replicas [2]*controller.Controller
	var servers [2]*httptest.Server
	for i := range replicas {
		c, err := controller.New(top, core.DefaultGeneratorConfig(), clock)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = c
		servers[i] = httptest.NewServer(c.Handler())
		defer servers[i].Close()
	}
	if replicas[0].ETag(top.Server(0).Name) != replicas[1].ETag(top.Server(0).Name) {
		t.Fatal("replicas not byte-identical")
	}

	// VIP in front of both replicas, with the state-change hook recording
	// the prober's failover decision.
	type transition struct {
		addr    string
		healthy bool
	}
	var tmu sync.Mutex
	var transitions []transition
	backendAddr := func(i int) string { return servers[i].Listener.Addr().String() }
	lb, err := slb.New("127.0.0.1:0", []string{backendAddr(0), backendAddr(1)}, slb.Options{
		HealthInterval: 20 * time.Millisecond,
		DialTimeout:    time.Second,
		OnStateChange: func(addr string, healthy bool) {
			tmu.Lock()
			transitions = append(transitions, transition{addr, healthy})
			tmu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// The refresh storm: clients polling through the VIP every 10ms.
	const numClients = 40
	const refreshInterval = 10 * time.Millisecond
	names := top.Servers()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		converged [numClients]atomic.Bool
		vmu       sync.Mutex
		versions  = map[string]bool{}
		fetchOK   atomic.Int64
		wg        sync.WaitGroup
		targetVer = "gen-2"
		baseURL   = "http://" + lb.Addr().String()
	)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &controller.Client{BaseURL: baseURL}
			name := names[i%len(names)].Name
			ticker := time.NewTicker(refreshInterval)
			defer ticker.Stop()
			for {
				res, err := cl.FetchDetail(ctx, name)
				if err == nil && res.File != nil {
					fetchOK.Add(1)
					vmu.Lock()
					versions[res.File.Version] = true
					vmu.Unlock()
					converged[i].Store(res.File.Version == targetVer)
				}
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
			}
		}(i)
	}

	// Let the storm reach steady state (every client has gen-1).
	waitFor(t, 5*time.Second, "storm warm-up", func() bool {
		return fetchOK.Load() >= numClients
	})

	// Publish gen-2 on both replicas, then kill replica 0 mid-storm.
	for _, c := range replicas {
		if err := c.UpdateTopology(top); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].Close()

	// Every client must converge to gen-2 within one refresh interval's
	// worth of polling plus failover slack.
	waitFor(t, 5*time.Second, "fleet convergence to gen-2", func() bool {
		for i := range converged {
			if !converged[i].Load() {
				return false
			}
		}
		return true
	})
	cancel()
	wg.Wait()

	// The prober must have ejected exactly the killed replica.
	waitFor(t, 5*time.Second, "SLB ejects dead replica", func() bool {
		h := lb.HealthyBackends()
		return len(h) == 1 && h[0] == backendAddr(1)
	})
	tmu.Lock()
	sawDown := false
	for _, tr := range transitions {
		if tr.addr == backendAddr(0) && !tr.healthy {
			sawDown = true
		}
		if tr.addr == backendAddr(1) && !tr.healthy {
			t.Errorf("healthy replica reported down: %+v", transitions)
		}
	}
	tmu.Unlock()
	if !sawDown {
		t.Error("OnStateChange never reported the killed replica down")
	}

	// Zero wrong-generation reads: only the two generations in play.
	vmu.Lock()
	defer vmu.Unlock()
	for v := range versions {
		if v != "gen-1" && v != "gen-2" {
			t.Errorf("client observed wrong generation %q (saw %v)", v, versions)
		}
	}
	if !versions["gen-1"] || !versions["gen-2"] {
		t.Errorf("storm did not span both generations: %v", versions)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
