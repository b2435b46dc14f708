package simclock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// retryOnSim runs one Retry on a sim clock, advancing it through the backoff
// sleeps, and returns what Retry returned plus when each attempt ran.
func retryOnSim(t *testing.T, ctx context.Context, p RetryPolicy, errs ...error) (RetryStats, error, []time.Duration) {
	t.Helper()
	sim := NewSim(epoch)
	var at []time.Duration
	type outcome struct {
		st  RetryStats
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := Retry(ctx, sim, p, func() error {
			at = append(at, sim.Since(epoch))
			return errs[min(len(at), len(errs))-1]
		})
		done <- outcome{st, err}
	}()
	for {
		select {
		case o := <-done:
			return o.st, o.err, at
		default:
			if sim.PendingTimers() > 0 {
				sim.Advance(time.Millisecond)
			} else {
				time.Sleep(50 * time.Microsecond) // let Retry reach its next timer
			}
		}
	}
}

func TestRetry(t *testing.T) {
	down := Transient(errors.New("503"))
	bad := errors.New("400")
	policy := ServiceRetry()
	ctx := context.Background()

	if st, err, _ := retryOnSim(t, ctx, policy, nil); err != nil || st != (RetryStats{Attempts: 1}) {
		t.Fatalf("first-try success: %+v, %v", st, err)
	}
	if st, err, _ := retryOnSim(t, ctx, policy, bad); err != bad || st != (RetryStats{Attempts: 1}) {
		t.Fatalf("permanent error: %+v, %v", st, err)
	}
	st, err, at := retryOnSim(t, ctx, policy, down, down, nil)
	if err != nil || st != (RetryStats{Attempts: 3}) {
		t.Fatalf("success on the third try: %+v, %v", st, err)
	}
	// Gap k is jittered from the nominal Base<<k into [nominal/2, nominal],
	// plus one advance quantum.
	for k, nominal := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond} {
		if gap := at[k+1] - at[k]; gap < nominal/2 || gap > nominal+time.Millisecond {
			t.Fatalf("backoff %d = %v, want within [%v, %v]", k, gap, nominal/2, nominal)
		}
	}
	st, err, at = retryOnSim(t, ctx, policy, down)
	if !IsTransient(err) || st != (RetryStats{Attempts: 3, GaveUp: true}) {
		t.Fatalf("always failing: %+v, %v", st, err)
	}
	if st, _, _ := retryOnSim(t, ctx, RetryPolicy{}, down); st != (RetryStats{Attempts: 1, GaveUp: true}) {
		t.Fatalf("zero policy: %+v, want one attempt", st)
	}

	// A ctx that ends mid-backoff ends the retries without waiting the backoff
	// out, and Retry still reports the call's error, not the context's.
	cctx, cancel := context.WithCancel(ctx)
	sim := NewSim(epoch)
	go func() {
		for sim.PendingTimers() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	st, err = Retry(cctx, sim, policy, func() error { return down })
	if err != down || st != (RetryStats{Attempts: 1, GaveUp: true}) || !sim.Now().Equal(epoch) {
		t.Fatalf("cancelled mid-backoff: %+v, %v at %v", st, err, sim.Now())
	}
}
