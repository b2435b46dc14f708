package pingmesh

// End-to-end conditional-GET test: a real Agent polling a real Controller
// over HTTP. The first poll downloads the pinglist; every poll after it is
// revalidated with If-None-Match and answered 304 Not Modified, so an
// unchanged pinglist costs zero body bytes. A topology update invalidates
// the ETag and the next poll applies the new generation — served as a
// delta against the agent's cached base, since the client advertises
// A-IM: pingmesh-copy-deflate and a same-topology regeneration differs
// only in metadata.

import (
	"context"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// idleProber answers instantly so the scheduling loop stays cheap.
type idleProber struct{}

func (idleProber) Probe(ctx context.Context, t agent.Target) (agent.Outcome, error) {
	return agent.Outcome{ConnectRTT: time.Millisecond, SrcPort: 40000}, nil
}

func TestAgentRevalidatesPinglistEndToEnd(t *testing.T) {
	top := topology.SmallTestbed()
	ctrl, err := controller.New(top, core.DefaultGeneratorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	name := top.Server(0).Name
	clock := simclock.NewSim(time.Unix(1751328000, 0))
	a, err := agent.New(agent.Config{
		ServerName: name,
		SourceAddr: netip.MustParseAddr("127.0.0.1"),
		Controller: &controller.Client{BaseURL: srv.URL},
		Prober:     idleProber{},
		Clock:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)

	// The first poll runs at start; each later one waits the agent's 5-minute
	// fetch interval, on a timer armed before the poll it follows. Apply a
	// pinglist, then revalidate it twice.
	poll := func(msg string, done func() bool) {
		t.Helper()
		clock.Advance(5 * time.Minute)
		waitUntil(t, done, msg)
	}
	revalidated := func(n int64) func() bool {
		return func() bool { return a.Metrics().Snapshot().Counters["agent.fetch_not_modified"] >= n }
	}
	waitUntil(t, func() bool { return a.Version() != "" }, "first poll applied")
	poll("first revalidation", revalidated(1))
	poll("second revalidation", revalidated(2))

	snap := a.Metrics().Snapshot()
	if snap.Counters["agent.fetch_not_modified"] < 2 {
		t.Fatalf("agent saw %d revalidations, want >= 2 (fetches_ok=%d)",
			snap.Counters["agent.fetch_not_modified"], snap.Counters["agent.fetches_ok"])
	}
	ctrlSnap := ctrl.Metrics().Snapshot()
	if ctrlSnap.Counters["controller.not_modified"] < 2 {
		t.Fatalf("controller answered %d 304s", ctrlSnap.Counters["controller.not_modified"])
	}
	// Exactly one full download happened: bytes served == one body, and
	// the agent's wire bytes match (gzip form, so strictly smaller than
	// the plain file).
	if ctrlSnap.Counters["controller.pinglist_serves"] != 1 {
		t.Fatalf("controller served %d full bodies, want 1", ctrlSnap.Counters["controller.pinglist_serves"])
	}
	if got, want := snap.Counters["agent.fetch_bytes"], ctrlSnap.Counters["controller.bytes_served"]; got != want {
		t.Fatalf("agent fetched %d wire bytes, controller served %d", got, want)
	}
	if a.PeerCount() == 0 {
		t.Fatal("agent applied no peers")
	}
	version := a.Version()

	// Topology update: the next poll must miss revalidation and apply the
	// new generation. The regenerated pinglist differs from the cached one
	// only in metadata, so the controller serves it as a tiny delta rather
	// than a second full body.
	if err := ctrl.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	poll("poll after the update", func() bool { return a.Version() != version })
	ctrlSnap = ctrl.Metrics().Snapshot()
	if n := ctrlSnap.Counters["controller.pinglist_serves"]; n != 1 {
		t.Fatalf("controller served %d full bodies after update, want still 1 (delta path)", n)
	}
	if n := ctrlSnap.Counters["controller.delta_serves"]; n != 1 {
		t.Fatalf("controller served %d deltas after update, want 1", n)
	}
	if n := a.Metrics().Snapshot().Counters["agent.fetch_delta"]; n != 1 {
		t.Fatalf("agent applied %d delta fetches, want 1", n)
	}
}
