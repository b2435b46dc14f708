package controller

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/simclock"
)

// TestBackoffSchedule pins the retry delay computation the client shares
// with the telemetry shipper and the agent's uploader
// (simclock.RetryPolicy.Backoff): nominal delays double from Base up to
// Max, and every actual delay is equal-jittered into [nominal/2, nominal].
func TestBackoffSchedule(t *testing.T) {
	nominal := []time.Duration{
		100 * time.Millisecond, // attempt 0
		200 * time.Millisecond, // attempt 1
		300 * time.Millisecond, // attempt 2: capped
		300 * time.Millisecond, // attempt 3: stays capped
	}
	p := simclock.RetryPolicy{Base: 100 * time.Millisecond, Max: 300 * time.Millisecond}
	for attempt, want := range nominal {
		for trial := 0; trial < 200; trial++ {
			d := p.Backoff(attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}

	// The client's policy: base 100ms, cap 2s.
	if d := simclock.ServiceRetry().Backoff(0); d < 50*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("first delay %v", d)
	}
	if d := simclock.ServiceRetry().Backoff(20); d < time.Second || d > 2*time.Second {
		t.Fatalf("capped delay %v", d)
	}
}

// flakyHandler fails the first n requests with the given status, then
// delegates to the wrapped handler. It records the fetch times seen on the
// sim clock.
type flakyHandler struct {
	mu       sync.Mutex
	failures int
	status   int
	inner    http.Handler
	clock    simclock.Clock
	requests []time.Time
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.requests = append(f.requests, f.clock.Now())
	fail := len(f.requests) <= f.failures
	f.mu.Unlock()
	if fail {
		http.Error(w, "replica restarting", f.status)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func (f *flakyHandler) times() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.requests...)
}

// fetchOnSim runs one FetchDetail in a goroutine while this goroutine
// advances the sim clock through any backoff sleeps, quantum by quantum.
func fetchOnSim(t *testing.T, cl *Client, sim *simclock.Sim, server string) (FetchResult, error) {
	t.Helper()
	type outcome struct {
		res FetchResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := cl.FetchDetail(context.Background(), server)
		done <- outcome{res, err}
	}()
	quantum := 5 * time.Millisecond
	for i := 0; ; i++ {
		select {
		case o := <-done:
			return o.res, o.err
		default:
		}
		if sim.PendingTimers() > 0 {
			sim.Advance(quantum)
		} else {
			time.Sleep(time.Millisecond) // real: let the HTTP round trip run
		}
		if i > 100000 {
			t.Fatal("fetch did not finish")
		}
	}
}

func newRetryRig(t *testing.T, failures, status int) (*flakyHandler, *Client, *simclock.Sim, string, func()) {
	t.Helper()
	rig := newDeltaRig(t)
	sim := simclock.NewSim(time.Unix(1751328000, 0))
	fh := &flakyHandler{failures: failures, status: status, inner: rig.h, clock: sim}
	srv := httptest.NewServer(fh)
	cl := &Client{BaseURL: srv.URL, Clock: sim}
	return fh, cl, sim, rig.name, srv.Close
}

func TestFetchRetriesTransient(t *testing.T) {
	fh, cl, sim, name, closeSrv := newRetryRig(t, 2, http.StatusServiceUnavailable)
	defer closeSrv()

	res, err := fetchOnSim(t, cl, sim, name)
	if err != nil {
		t.Fatalf("fetch after retries: %v", err)
	}
	if res.File == nil || len(res.File.Peers) == 0 {
		t.Fatal("no pinglist after retries")
	}
	if got := cl.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	times := fh.times()
	if len(times) != 3 {
		t.Fatalf("%d requests, want 3", len(times))
	}
	// The schedule on the sim clock: gap k is jittered from nominal
	// 100ms<<k, so it lies in [nominal/2, nominal] (plus one advance
	// quantum of slack).
	for k, nominal := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		gap := times[k+1].Sub(times[k])
		if gap < nominal/2 || gap > nominal+5*time.Millisecond {
			t.Fatalf("retry %d gap %v outside [%v, %v]", k, gap, nominal/2, nominal)
		}
	}
}

func TestFetchRetriesExhausted(t *testing.T) {
	fh, cl, sim, name, closeSrv := newRetryRig(t, 100, http.StatusBadGateway)
	defer closeSrv()

	_, err := fetchOnSim(t, cl, sim, name)
	if err == nil {
		t.Fatal("fetch succeeded against an always-502 server")
	}
	if !simclock.IsTransient(err) {
		t.Fatalf("exhausted error not marked transient: %v", err)
	}
	if got := len(fh.times()); got != 3 { // 1 try + ServiceRetry's 2 retries
		t.Fatalf("%d requests, want 3", got)
	}
}

func TestFetchNoRetryOnPermanent(t *testing.T) {
	t.Run("404-fail-closed", func(t *testing.T) {
		fh, cl, sim, _, closeSrv := newRetryRig(t, 0, 0)
		defer closeSrv()
		_, err := fetchOnSim(t, cl, sim, "no-such-server")
		var enp *ErrNoPinglist
		if !errors.As(err, &enp) {
			t.Fatalf("err = %v, want ErrNoPinglist", err)
		}
		if got := len(fh.times()); got != 1 {
			t.Fatalf("%d requests, want 1 (no retry on 404)", got)
		}
		if cl.Stats().Retries != 0 {
			t.Fatal("retried a permanent failure")
		}
	})
	t.Run("400-bad-request", func(t *testing.T) {
		fh, cl, sim, name, closeSrv := newRetryRig(t, 100, http.StatusBadRequest)
		defer closeSrv()
		if _, err := fetchOnSim(t, cl, sim, name); err == nil {
			t.Fatal("no error for 400")
		}
		if got := len(fh.times()); got != 1 {
			t.Fatalf("%d requests, want 1 (no retry on 4xx)", got)
		}
	})
}
