package simclock

import (
	"context"
	"math/rand"
	"time"
)

// Backoff returns the delay before retry number attempt (0-based): nominal
// base<<attempt capped at max, equal-jittered to uniform [d/2, d] so a
// fleet retrying against a recovering service doesn't synchronize into a
// thundering herd. base <= 0 means 100ms; max <= 0 means 2s.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

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
