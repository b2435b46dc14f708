package cosmos

import (
	"context"
	"time"

	"pingmesh/internal/simclock"
)

// Client is the agent-facing upload path: it appends batches to a stream
// chosen per upload (typically "pingmesh/<date>/<dc>", so daily jobs can
// select their window by prefix). It implements the agent package's
// Uploader interface.
type Client struct {
	// Store is the cosmos cluster (in production: the VIP front end).
	Store *Store
	// Stream names the target stream for an upload at time t.
	Stream func(t time.Time) string
	// Clock defaults to wall time.
	Clock simclock.Clock
}

// Upload implements the agent Uploader contract.
func (c *Client) Upload(ctx context.Context, batch []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	clock := c.Clock
	if clock == nil {
		clock = simclock.NewReal()
	}
	name := "pingmesh/default"
	if c.Stream != nil {
		name = c.Stream(clock.Now())
	}
	return c.Store.Append(name, batch)
}

// DailyStream returns a Stream function producing "<prefix>/<YYYY-MM-DD>".
func DailyStream(prefix string) func(time.Time) string {
	return func(t time.Time) string {
		return prefix + "/" + t.UTC().Format("2006-01-02")
	}
}
