package telemetry

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
)

// Shipper periodically encodes a registry into PMT1 reports and POSTs them
// to a collector. It is the agent-side half of the §3.5 perfcounter path:
// one report per interval, gzip-compressed, retried with the same capped
// equal-jitter backoff the pinglist client uses, acknowledged so the next
// report's deltas start where the collector actually is. A 409 from the
// collector (it lost our base — restart, failover) triggers a Rebase and
// the next report goes out self-contained.
//
// Shipper runs one report at a time from one goroutine; retries resend the
// same bytes, so a report applied whose ack was lost is deduplicated by
// the collector's seq check.
type Shipper struct {
	// URL is the collector's report endpoint, e.g.
	// "http://controller:8080/telemetry/report".
	URL string
	// Src identifies this agent on the wire (typically its server name).
	Src string
	// Scope is the agent's position in the rollup hierarchy, e.g.
	// "d0.s1.p2" for DC d0, podset s1, pod p2. Empty counts towards fleet
	// only; "fleet" itself is the collector's and not a legal first segment.
	Scope string
	// Registry is the metrics source.
	Registry *metrics.Registry

	// Clock drives the report loop and backoff sleeps. nil means wall time.
	Clock simclock.Clock
	// Interval is the reporting cadence. Default 5 minutes (§3.5).
	Interval time.Duration

	enc   *Encoder
	zbuf  bytes.Buffer
	zw    *gzip.Writer
	stats ShipperStats
}

// ShipperStats counts the shipper's transport behaviour.
type ShipperStats struct {
	// Reports is the number of reports acknowledged by the collector.
	Reports int64
	// BytesOnWire is total body bytes sent (compressed size when gzip):
	// every attempt counts, retried bodies and the one that drew a 409
	// included.
	BytesOnWire int64
	// Retries is how many transient-failure retries were attempted.
	Retries int64
	// Resyncs is how many 409 responses triggered a rebase.
	Resyncs int64
	// Errors is how many reports were abandoned after retries ran out.
	Errors int64
}

// Stats returns a snapshot of the shipper's counters. Call from the
// shipper's goroutine or after Run returns.
func (s *Shipper) Stats() ShipperStats { return s.stats }

// shipperClient has a 10s timeout and keep-alives off: reports are minutes
// apart.
var shipperClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func (s *Shipper) clock() simclock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return simclock.NewReal()
}

func (s *Shipper) interval() time.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return 5 * time.Minute
}

// Run reports every Interval until ctx is done, then ships one final
// report so the collector sees activity up to shutdown.
func (s *Shipper) Run(ctx context.Context) {
	clk := s.clock()
	ticker := clk.NewTicker(s.interval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			final, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.ReportOnce(final)
			cancel()
			return
		case <-ticker.C:
			s.ReportOnce(ctx)
		}
	}
}

// ReportOnce builds and ships one report. Transient failures (transport
// errors, 5xx) retry the same bytes with backoff; a 409 rebases the
// encoder and returns nil (the next interval's report is self-contained).
// Permanent failures and retry exhaustion return the error; the deltas are
// not lost — the next report re-carries them against the same base.
func (s *Shipper) ReportOnce(ctx context.Context) error {
	if s.enc == nil {
		s.enc = NewEncoder(s.Src, s.Scope, s.Registry)
	}
	data, seq := s.enc.Encode(s.clock().Now().UnixNano())
	s.zbuf.Reset()
	if s.zw == nil {
		s.zw = gzip.NewWriter(&s.zbuf)
	} else {
		s.zw.Reset(&s.zbuf)
	}
	s.zw.Write(data)
	if err := s.zw.Close(); err != nil {
		return fmt.Errorf("telemetry: gzip report: %w", err)
	}
	body := s.zbuf.Bytes()

	// The pinglist client's default policy: two retries, a nominal 100ms
	// first delay doubling up to 2s, equal-jittered.
	st, err := simclock.Retry(ctx, s.clock(), simclock.MaxRetries(0, 0, 0), func() error {
		return s.post(ctx, body, seq)
	})
	s.stats.Retries += int64(st.Attempts - 1)
	if err != nil {
		s.stats.Errors++
	}
	return err
}

func (s *Shipper) post(ctx context.Context, body []byte, seq uint64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("telemetry: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", "gzip")
	s.stats.BytesOnWire += int64(len(body))
	resp, err := shipperClient.Do(req)
	if err != nil {
		return simclock.Transient(fmt.Errorf("telemetry: ship report: %w", err))
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var ack struct {
			Ack uint64 `json:"ack"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&ack); err != nil {
			return fmt.Errorf("telemetry: parse ack: %w", err)
		}
		if ack.Ack != seq {
			return fmt.Errorf("telemetry: collector acked %d, sent %d", ack.Ack, seq)
		}
		s.enc.Ack(seq)
		s.stats.Reports++
		return nil
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		s.enc.Rebase()
		s.stats.Resyncs++
		return nil
	default:
		io.Copy(io.Discard, resp.Body)
		err := fmt.Errorf("telemetry: ship report: status %d", resp.StatusCode)
		if resp.StatusCode >= 500 {
			return simclock.Transient(err)
		}
		return err
	}
}
