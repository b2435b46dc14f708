package simclock

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Sleep blocks for d on clk, or until ctx is done.
func Sleep(ctx context.Context, clk Clock, d time.Duration) error {
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryPolicy bounds a Retry: Attempts tries in all (fewer than two is one
// try), with Backoff(k) slept between try k and the next.
type RetryPolicy struct {
	Attempts  int
	Base, Max time.Duration
}

// ServiceRetry is the policy of the agent's calls to the control plane, a
// pinglist fetch and a telemetry report: three tries, 100ms apart doubling
// to a 2s cap, so one replica blip behind the VIP does not strand an agent
// until its next interval.
func ServiceRetry() RetryPolicy {
	return RetryPolicy{Attempts: 3, Base: 100 * time.Millisecond, Max: 2 * time.Second}
}

// Backoff returns the delay before retry number attempt (0-based): nominal
// Base<<attempt capped at Max, equal-jittered to uniform [d/2, d] so a
// fleet retrying against a recovering service doesn't synchronize into a
// thundering herd.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// transientError marks a failure worth retrying.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as worth retrying: a transport error or a 5xx, the
// shapes a dying, draining or restarting service produces. Retry returns
// anything else — 4xx, parse and validation failures — at once.
func Transient(err error) error { return &transientError{err} }

// IsTransient reports whether err, or an error it wraps, was marked Transient.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// RetryStats is what one Retry did, the same for every caller that counts it.
type RetryStats struct {
	// Attempts is how many times fn ran.
	Attempts int
	// GaveUp is set when the last error was still Transient: the attempts
	// ran out, or ctx ended first.
	GaveUp bool
}

// Retry runs fn until it succeeds, fails with an error not marked Transient,
// exhausts the policy's attempts, or ctx is done, sleeping the policy's
// jittered backoff on clk between attempts. It returns fn's last error; a
// ctx that ends mid-backoff does not replace it.
func Retry(ctx context.Context, clk Clock, p RetryPolicy, fn func() error) (RetryStats, error) {
	var st RetryStats
	for {
		err := fn()
		st.Attempts++
		if err == nil || !IsTransient(err) {
			return st, err
		}
		if st.Attempts >= p.Attempts || ctx.Err() != nil ||
			Sleep(ctx, clk, p.Backoff(st.Attempts-1)) != nil {
			st.GaveUp = true
			return st, err
		}
	}
}
