package agent

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/controller"
	"pingmesh/internal/netlib"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
)

var (
	agentAddr = netip.MustParseAddr("10.0.0.1")
	peerAddr  = netip.MustParseAddr("10.0.0.2")
	epoch     = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
)

// fakeFetcher serves a fixed sequence of (file, error) responses, sticking
// on the last one.
type fakeFetcher struct {
	mu      sync.Mutex
	results []fetchResult
	calls   int
}

type fetchResult struct {
	f   *pinglist.File
	err error
}

func (ff *fakeFetcher) Fetch(ctx context.Context, server string) (*pinglist.File, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.calls++
	i := ff.calls - 1
	if i >= len(ff.results) {
		i = len(ff.results) - 1
	}
	r := ff.results[i]
	return r.f, r.err
}

func (ff *fakeFetcher) callCount() int {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.calls
}

// fakeProber returns a configurable outcome.
type fakeProber struct {
	mu     sync.Mutex
	rtt    time.Duration
	err    error
	probes int
}

func (fp *fakeProber) Probe(ctx context.Context, t Target) (Outcome, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.probes++
	if fp.err != nil {
		return Outcome{}, fp.err
	}
	return Outcome{ConnectRTT: fp.rtt, SrcPort: 40000}, nil
}

func (fp *fakeProber) count() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.probes
}

// fakeUploader captures batches, optionally failing the first n attempts.
type fakeUploader struct {
	mu       sync.Mutex
	failures int
	batches  [][]byte
}

func (fu *fakeUploader) Upload(ctx context.Context, batch []byte) error {
	fu.mu.Lock()
	defer fu.mu.Unlock()
	if fu.failures > 0 {
		fu.failures--
		return errors.New("cosmos unavailable")
	}
	fu.batches = append(fu.batches, append([]byte(nil), batch...))
	return nil
}

func (fu *fakeUploader) batchCount() int {
	fu.mu.Lock()
	defer fu.mu.Unlock()
	return len(fu.batches)
}

func testFile(version string, peers int) *pinglist.File {
	f := &pinglist.File{Server: "srv1", Version: version, Generated: epoch}
	for i := 0; i < peers; i++ {
		f.Peers = append(f.Peers, pinglist.Peer{
			Addr:        fmt.Sprintf("10.0.0.%d", i+2),
			Port:        8765,
			Class:       "intra-pod",
			Proto:       "tcp",
			QoS:         "high",
			IntervalSec: 10,
		})
	}
	return f
}

func testConfig(ff Fetcher, fp Prober, clock simclock.Clock) Config {
	return Config{
		ServerName: "srv1",
		SourceAddr: agentAddr,
		Controller: ff,
		Prober:     fp,
		Clock:      clock,
	}
}

func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting: " + msg)
}

func TestNewValidation(t *testing.T) {
	valid := testConfig(&fakeFetcher{}, &fakeProber{}, nil)
	if _, err := New(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.ServerName = "" },
		func(c *Config) { c.SourceAddr = netip.Addr{} },
		func(c *Config) { c.Controller = nil },
		func(c *Config) { c.Prober = nil },
	}
	for i, mut := range cases {
		c := testConfig(&fakeFetcher{}, &fakeProber{}, nil)
		mut(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestApplyPinglistClampsSafetyLimits(t *testing.T) {
	a, err := New(testConfig(&fakeFetcher{}, &fakeProber{}, simclock.NewSim(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	f := testFile("v1", 1)
	f.Peers[0].IntervalSec = 1                     // below the hard floor
	f.Peers[0].PayloadLen = 10 * netlib.MaxPayload // above the hard cap
	if err := a.applyPinglist(f); err != nil {
		t.Fatal(err)
	}
	tg, every := a.sched.Peer(0)
	if every != pinglist.MinProbeInterval {
		t.Fatalf("interval = %v, want clamped to %v", every, pinglist.MinProbeInterval)
	}
	if tg.PayloadLen != netlib.MaxPayload {
		t.Fatalf("payload = %d, want clamped to %d", tg.PayloadLen, netlib.MaxPayload)
	}
}

func TestApplyPinglistRejectsInvalid(t *testing.T) {
	a, _ := New(testConfig(&fakeFetcher{}, &fakeProber{}, simclock.NewSim(epoch)))
	f := testFile("v1", 1)
	f.Peers[0].Addr = "bogus"
	if err := a.applyPinglist(f); err == nil {
		t.Fatal("invalid pinglist applied")
	}
}

func TestRunFetchesAndProbes(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 3)}}}
	fp := &fakeProber{rtt: 300 * time.Microsecond}
	fu := &fakeUploader{}
	cfg := testConfig(ff, fp, clock)
	cfg.Uploader = fu
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()

	waitUntil(t, func() bool { return a.PeerCount() == 3 }, "pinglist applied")
	if a.Version() != "v1" {
		t.Fatalf("Version = %q", a.Version())
	}
	// Advance through a probe interval: all three peers probe.
	for i := 0; i < 20; i++ {
		clock.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	waitUntil(t, func() bool { return fp.count() >= 3 }, "probes executed")
	probed := func() int64 { return a.Metrics().Snapshot().Counters["agent.probes_total"] }
	waitUntil(t, func() bool { return probed() >= 3 }, "probes recorded")
	snap := a.Metrics().Snapshot()
	if snap.Gauges["agent.peers"] != 3 {
		t.Fatalf("peers gauge = %d", snap.Gauges["agent.peers"])
	}
	cancel()
	<-done // the final flush ships the open window's sketches

	dsts := map[netip.Addr]bool{}
	var summarized uint64
	for _, b := range fu.batches {
		recs, sks := scanUpload(t, b)
		if len(recs) != 0 {
			t.Fatalf("healthy probes shipped %d raw records", len(recs))
		}
		for _, sk := range sks {
			if sk.Src != agentAddr || time.Duration(sk.RTT.Min) != 300*time.Microsecond || time.Duration(sk.RTT.Max) != 300*time.Microsecond {
				t.Fatalf("unexpected sketch: src %v rtt [%d, %d]", sk.Src, sk.RTT.Min, sk.RTT.Max)
			}
			dsts[sk.Dst] = true
			summarized += sk.Records()
		}
	}
	if len(dsts) != 3 || int64(summarized) != probed() {
		t.Fatalf("uploaded sketches of %d peers and %d probes, want 3 peers and all %d", len(dsts), summarized, probed())
	}
}

func TestProbesRepeatAtInterval(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}
	fp := &fakeProber{rtt: time.Millisecond}
	a, _ := New(testConfig(ff, fp, clock))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 1 }, "applied")
	for i := 0; i < 40; i++ {
		clock.Advance(2500 * time.Millisecond) // 100s total
		time.Sleep(2 * time.Millisecond)
	}
	// 100s at a 10s interval: expect ~10 probes, certainly >= 5.
	waitUntil(t, func() bool { return fp.count() >= 5 }, "repeated probes")
}

func TestFailClosedAfterFetchFailures(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{
		{f: testFile("v1", 2)},
		{err: errors.New("dial tcp: connection refused")},
	}}
	fp := &fakeProber{rtt: time.Millisecond}
	a, _ := New(testConfig(ff, fp, clock))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 2 }, "applied")

	// Three failed fetch cycles -> fail closed.
	for i := 0; i < 3; i++ {
		clock.Advance(5 * time.Minute)
		time.Sleep(5 * time.Millisecond)
	}
	waitUntil(t, func() bool { return a.FailedClosed() }, "failed closed")
	if a.PeerCount() != 0 {
		t.Fatalf("PeerCount = %d after fail-closed", a.PeerCount())
	}
}

func TestFailClosedOnNoPinglistAndRecovers(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{
		{f: testFile("v1", 2)},
		{err: &controller.ErrNoPinglist{Server: "srv1"}},
		{f: testFile("v2", 2)},
	}}
	fp := &fakeProber{rtt: time.Millisecond}
	a, _ := New(testConfig(ff, fp, clock))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 2 }, "applied v1")

	// One no-pinglist response fails closed immediately (no 3-strike).
	clock.Advance(5 * time.Minute)
	waitUntil(t, func() bool { return a.FailedClosed() }, "failed closed on no pinglist")

	// Next successful fetch restores probing.
	clock.Advance(5 * time.Minute)
	waitUntil(t, func() bool { return !a.FailedClosed() && a.PeerCount() == 2 }, "recovered")
	if a.Version() != "v2" {
		t.Fatalf("Version = %q after recovery", a.Version())
	}
}

func TestUploadBatches(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 2)}}}
	fp := &fakeProber{rtt: 500 * time.Microsecond}
	fu := &fakeUploader{}
	cfg := testConfig(ff, fp, clock)
	cfg.Uploader = fu
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 2 }, "applied")
	// Healthy probes leave in their window's sketches, at the first upload
	// tick after the window has closed: drive past the 10-minute boundary.
	for i := 0; i < 70 && fu.batchCount() == 0; i++ {
		clock.Advance(10 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	waitUntil(t, func() bool { return fu.batchCount() > 0 }, "upload happened")

	fu.mu.Lock()
	batch := fu.batches[0]
	fu.mu.Unlock()
	if now := clock.Now(); now.Before(epoch.Add(probe.Window)) {
		t.Fatalf("uploaded at %v, with the only window still open", now)
	}
	recs, sks := scanUpload(t, batch)
	if len(recs) != 0 || len(sks) == 0 {
		t.Fatalf("uploaded batch holds %d raw records and %d sketches, want sketches only", len(recs), len(sks))
	}
	for i := range sks {
		if !sks[i].MaxStart.Before(epoch.Add(probe.Window)) {
			t.Fatalf("sketch %d reaches %v, into the open window", i, sks[i].MaxStart)
		}
	}
}

func TestUploadRetryThenDiscard(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}
	fp := &fakeProber{err: errors.New("timeout")} // failed probes ship raw, at every upload tick
	fu := &fakeUploader{failures: 1 << 30}        // always fail
	cfg := testConfig(ff, fp, clock)
	cfg.Uploader = fu
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 1 }, "applied")
	for i := 0; i < 30; i++ {
		clock.Advance(15 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
	waitUntil(t, func() bool {
		return a.Metrics().Snapshot().Counters["agent.uploads_discarded"] > 0
	}, "batch discarded after retries")
	// The buffer must not grow without bound.
	if n := len(a.BufferedRecords()); n > maxBufferedRecords {
		t.Fatalf("buffer grew to %d", n)
	}
}

// timedUploader always fails and records when, on the agent's clock, each
// attempt arrived.
type timedUploader struct {
	clock simclock.Clock
	mu    sync.Mutex
	at    []time.Time
}

func (u *timedUploader) Upload(ctx context.Context, batch []byte) error {
	u.mu.Lock()
	u.at = append(u.at, u.clock.Now())
	u.mu.Unlock()
	return errors.New("cosmos unavailable")
}

// TestUploadBackoff pins the upload retry loop's two fleet-facing
// properties: a cancelled ctx ends a flush mid-backoff without waiting
// the delay out, and every delay is equal-jittered into [d/2, d] of the
// nominal 1s<<attempt, so agents retrying against a recovering store
// spread out instead of marching in lockstep.
func TestUploadBackoff(t *testing.T) {
	start := func(t *testing.T) (*Agent, *simclock.Sim, *timedUploader) {
		clock := simclock.NewSim(epoch)
		fu := &timedUploader{clock: clock}
		cfg := testConfig(&fakeFetcher{}, &fakeProber{}, clock)
		cfg.Uploader = fu
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.record(probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, Err: "timeout"})
		return a, clock, fu
	}

	t.Run("cancel", func(t *testing.T) {
		a, clock, _ := start(t)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			a.flush(ctx, false)
			close(done)
		}()
		waitUntil(t, func() bool { return clock.PendingTimers() > 0 }, "first backoff armed")
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("flush still blocked in backoff after ctx was cancelled")
		}
		if now := clock.Now(); !now.Equal(epoch) {
			t.Fatalf("clock advanced to %v; flush waited the backoff out", now)
		}
		if got := a.Metrics().Snapshot().Counters["agent.uploads_discarded"]; got != 1 {
			t.Fatalf("uploads_discarded = %d, want 1", got)
		}
	})

	t.Run("jitter", func(t *testing.T) {
		const quantum = 10 * time.Millisecond
		jittered := 0
		for trial := 0; trial < 8; trial++ {
			a, clock, fu := start(t)
			done := make(chan struct{})
			go func() {
				a.flush(context.Background(), false)
				close(done)
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
					if clock.PendingTimers() > 0 {
						clock.Advance(quantum)
					} else {
						time.Sleep(50 * time.Microsecond) // let flush reach its next timer
					}
				}
			}
			if len(fu.at) != uploadRetries {
				t.Fatalf("%d upload attempts, want %d", len(fu.at), uploadRetries)
			}
			// Delay k runs from attempt k to attempt k+1 (the last one to
			// flush's return), rounded up to the advance quantum.
			for k, from := range fu.at {
				end := clock.Now()
				if k+1 < len(fu.at) {
					end = fu.at[k+1]
				}
				nominal := time.Second << k
				gap := end.Sub(from)
				if gap < nominal/2 || gap > nominal+quantum {
					t.Fatalf("trial %d delay %d = %v outside [%v, %v]", trial, k, gap, nominal/2, nominal)
				}
				if gap < nominal-quantum {
					jittered++
				}
			}
		}
		if jittered == 0 {
			t.Fatal("every delay at its nominal value: backoff is not jittered")
		}
	})
}

func TestMemoryBoundDropsOldest(t *testing.T) {
	clock := simclock.NewSim(epoch)
	a, _ := New(Config{
		ServerName: "srv1",
		SourceAddr: agentAddr,
		Controller: &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}},
		Prober:     &fakeProber{},
		Clock:      clock,
		Uploader:   &fakeUploader{}, // never called: nothing flushes
	})
	for i := 0; i < maxBufferedRecords+15; i++ { // failed probes: they ship raw, through the buffer
		a.record(probe.Record{Start: epoch.Add(time.Duration(i) * time.Second), Src: agentAddr, Dst: peerAddr, Err: "timeout"})
	}
	recs := a.BufferedRecords()
	if len(recs) != maxBufferedRecords {
		t.Fatalf("buffer = %d records, want %d", len(recs), maxBufferedRecords)
	}
	// Oldest dropped: first record should be from i=15.
	if recs[0].Start != epoch.Add(15*time.Second) {
		t.Fatalf("oldest record = %v", recs[0].Start)
	}
	if a.Metrics().Snapshot().Counters["agent.records_dropped"] != 15 {
		t.Fatal("records_dropped counter wrong")
	}
}

func TestDropRateHeuristicCounters(t *testing.T) {
	a, _ := New(testConfig(&fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}, &fakeProber{}, simclock.NewSim(epoch)))
	mk := func(rtt time.Duration) probe.Record {
		return probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, RTT: rtt}
	}
	for i := 0; i < 97; i++ {
		a.record(mk(300 * time.Microsecond))
	}
	a.record(mk(3*time.Second + 400*time.Microsecond))
	a.record(mk(9*time.Second + 400*time.Microsecond))
	failed := mk(0)
	failed.Err = "timeout"
	a.record(failed)

	snap := a.Metrics().Snapshot()
	if snap.Counters["agent.rtt_3s"] != 1 || snap.Counters["agent.rtt_9s"] != 1 {
		t.Fatalf("retransmit counters: 3s=%d 9s=%d", snap.Counters["agent.rtt_3s"], snap.Counters["agent.rtt_9s"])
	}
	if snap.Counters["agent.probes_failed"] != 1 {
		t.Fatalf("probes_failed = %d", snap.Counters["agent.probes_failed"])
	}
	// Heuristic: (3s + 9s count) / successful probes = 2/99.
	want := 2.0 / 99.0
	if got := a.DropRate(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("DropRate = %g, want %g", got, want)
	}
}

func TestFailedProbeRecorded(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}
	fp := &fakeProber{err: errors.New("timeout")}
	cfg := testConfig(ff, fp, clock)
	cfg.Uploader = &fakeUploader{} // 20 s is short of the upload interval: the failure stays buffered
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 1 }, "applied")
	for i := 0; i < 20; i++ {
		clock.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	waitUntil(t, func() bool { return len(a.BufferedRecords()) >= 1 }, "failure recorded")
	r := a.BufferedRecords()[0]
	if r.Success() || r.Err != "timeout" {
		t.Fatalf("record = %+v", r)
	}
}

func TestUnchangedVersionNotReapplied(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 2)}}}
	a, _ := New(testConfig(ff, &fakeProber{}, clock))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 2 }, "applied")
	// Capture next-probe state, fetch again with same version, ensure the
	// schedule was not reset (peer count stays, no churn).
	clock.Advance(5 * time.Minute)
	time.Sleep(10 * time.Millisecond)
	if a.PeerCount() != 2 || a.Version() != "v1" {
		t.Fatal("agent state churned on unchanged pinglist")
	}
}

// TestFetchCountsDeltaFallback: a patch the client cannot use is counted
// as agent.fetch_delta_fallbacks, and its bytes in agent.fetch_bytes next
// to the full download that replaced it.
func TestFetchCountsDeltaFallback(t *testing.T) {
	body, err := pinglist.Marshal(testFile("v1", 2))
	if err != nil {
		t.Fatal(err)
	}
	const garbage = "<PinglistDelta this is not a delta"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			w.WriteHeader(http.StatusIMUsed)
			w.Write([]byte(garbage))
			return
		}
		w.Header().Set("ETag", `"v1"`)
		w.Write(body)
	}))
	defer srv.Close()
	a, err := New(testConfig(&controller.Client{BaseURL: srv.URL}, &fakeProber{}, simclock.NewSim(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	a.fetchOnce(context.Background())
	a.fetchOnce(context.Background()) // revalidation → unusable patch → full body
	c := a.Metrics().Snapshot().Counters
	if c["agent.fetches_ok"] != 2 || c["agent.fetch_delta_fallbacks"] != 1 || c["agent.fetch_delta"] != 0 {
		t.Fatalf("fetches_ok %d, fetch_delta_fallbacks %d, fetch_delta %d; want 2, 1, 0",
			c["agent.fetches_ok"], c["agent.fetch_delta_fallbacks"], c["agent.fetch_delta"])
	}
	if want := int64(2*len(body) + len(garbage)); c["agent.fetch_bytes"] != want {
		t.Fatalf("agent.fetch_bytes = %d, want %d", c["agent.fetch_bytes"], want)
	}
}

func TestLocalLogWritesAndRotates(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/pingmesh.log"
	l, err := NewLocalLog(path, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, RTT: time.Millisecond}
	for i := 0; i < 50; i++ {
		l.Write(&r)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 400 {
		t.Fatalf("active log %d bytes exceeds cap", st.Size())
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	data, _ := os.ReadFile(path + ".1")
	if !strings.HasPrefix(string(data), probe.CSVHeader) {
		t.Fatal("rotated log missing CSV header")
	}
}

func TestAgentWithLocalLog(t *testing.T) {
	clock := simclock.NewSim(epoch)
	dir := t.TempDir()
	l, err := NewLocalLog(dir+"/agent.log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}
	cfg := testConfig(ff, &fakeProber{rtt: time.Millisecond}, clock)
	cfg.LocalLog = l
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 1 }, "applied")
	for i := 0; i < 20; i++ {
		clock.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	waitUntil(t, func() bool {
		data, _ := os.ReadFile(dir + "/agent.log")
		return strings.Count(string(data), "\n") >= 2 // header + >=1 record
	}, "record in local log")
}

func TestFailClosedStopsProbing(t *testing.T) {
	// §3.4.2: a failed-closed agent removes all peers and stops probing
	// entirely (it keeps answering probes from others, which is the probe
	// server's job, not the scheduler's).
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{
		{f: testFile("v1", 2)},
		{err: &controller.ErrNoPinglist{Server: "srv1"}},
	}}
	// Failed probes ship raw, so every probe is a record, in the raw buffer
	// or in an upload.
	fp := &fakeProber{err: errors.New("timeout")}
	fu := &fakeUploader{}
	cfg := testConfig(ff, fp, clock)
	cfg.Uploader = fu
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	waitUntil(t, func() bool { return a.PeerCount() == 2 }, "applied")
	// An Advance that beats a loop's timer fires nothing. Three armed timers
	// are the upload ticker, the scheduler's wait and the fetch timer.
	waitUntil(t, func() bool { return clock.PendingTimers() >= 3 }, "timers armed")

	clock.Advance(5 * time.Minute) // next fetch: no pinglist -> fail closed
	waitUntil(t, func() bool { return a.FailedClosed() }, "failed closed")
	stopped := clock.Now()

	// Hours of simulated time later: not a single new probe. Each step
	// waits for the fetch it triggers, which kicks the scheduler again. A
	// probe dispatched just before the stop may still land after it, so the
	// verdict is on when probes started, not on how many were counted when —
	// and a probe stamps its Start under the lock that orders it against the
	// stop, so one that was still waiting for its goroutine to be scheduled
	// when this test advanced the clock is dropped, not stamped late.
	for i := 0; i < 40; i++ {
		fetched := ff.callCount()
		clock.Advance(5 * time.Minute)
		waitUntil(t, func() bool { return ff.callCount() > fetched }, "fetch after fail-closed")
	}
	recs := a.BufferedRecords()
	fu.mu.Lock()
	for _, b := range fu.batches {
		uploaded, _ := scanUpload(t, b)
		recs = append(recs, uploaded...)
	}
	fu.mu.Unlock()
	for _, r := range recs {
		if r.Start.After(stopped) {
			t.Fatalf("probe at %v, after the agent failed closed at %v", r.Start, stopped)
		}
	}
}

func TestUploadThresholdTriggersEarlyShip(t *testing.T) {
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}
	fu := &fakeUploader{}
	cfg := testConfig(ff, &fakeProber{}, clock)
	cfg.Uploader = fu
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	// The clock never moves, so no upload tick is due: only the threshold
	// can ship. It counts raw records, so the records are failed probes.
	for i := 0; i < uploadThreshold; i++ {
		a.record(probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, Err: "timeout"})
	}
	waitUntil(t, func() bool { return fu.batchCount() > 0 }, "threshold-triggered upload")
	if now := clock.Now(); !now.Equal(epoch) {
		t.Fatalf("clock moved to %v", now)
	}
}

func TestRunFinalFlushOnShutdown(t *testing.T) {
	// Run's exit path ships what a clean shutdown would otherwise lose: the
	// still-open window's sketches, which no periodic flush may cut.
	clock := simclock.NewSim(epoch)
	ff := &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}
	fp := &fakeProber{rtt: time.Millisecond}
	fu := &fakeUploader{}
	cfg := testConfig(ff, fp, clock)
	cfg.Uploader = fu // 20 s is short of the upload interval: the periodic path never fires
	a, _ := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()
	waitUntil(t, func() bool { return a.PeerCount() == 1 }, "applied")
	for i := 0; i < 20; i++ {
		clock.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	probed := func() int64 { return a.Metrics().Snapshot().Counters["agent.probes_total"] }
	waitUntil(t, func() bool { return probed() >= 1 }, "probed")
	if n := len(a.BufferedRecords()); n != 0 {
		t.Fatalf("%d healthy probes sit in the raw buffer", n)
	}
	cancel()
	<-done
	if fu.batchCount() != 1 {
		t.Fatalf("shutdown shipped %d batches, want the final flush's one", fu.batchCount())
	}
	recs, sks := scanUpload(t, fu.batches[0])
	var summarized uint64
	for i := range sks {
		summarized += sks[i].Records()
	}
	if len(recs) != 0 || int64(summarized) != probed() {
		t.Fatalf("final flush shipped %d raw records and sketches of %d probes, want 0 and all %d", len(recs), summarized, probed())
	}
}

func BenchmarkAgentRecordHotPath(b *testing.B) {
	a, err := New(Config{
		ServerName: "srv1",
		SourceAddr: agentAddr,
		Controller: &fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}},
		Prober:     &fakeProber{},
		Clock:      simclock.NewSim(epoch),
		Uploader:   &fakeUploader{}, // never called: nothing flushes
	})
	if err != nil {
		b.Fatal(err)
	}
	// A failed probe ships raw. Without a flush nothing drains the buffer:
	// fill it first, so that every timed record lands on the full ring, the
	// drop-oldest path, which cost a copy of the whole buffer when it was
	// not a ring.
	rec := probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, Err: "timeout"}
	for i := 0; i < maxBufferedRecords; i++ {
		a.record(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.record(rec)
	}
	if dropped := a.Metrics().Snapshot().Counters["agent.records_dropped"]; dropped < int64(b.N) {
		b.Fatalf("%d of %d timed records dropped the oldest", dropped, b.N)
	}
}
