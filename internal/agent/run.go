package agent

import (
	"context"
	"errors"
	"math"
	"time"

	"pingmesh/internal/controller"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

// uploadBackoffMax caps the nominal 1s<<attempt delay between upload
// retries.
const uploadBackoffMax = time.Minute

// Run starts the agent's three loops — pinglist fetching, probe
// scheduling, and result uploading — and blocks until ctx is cancelled.
func (a *Agent) Run(ctx context.Context) error {
	done := make(chan struct{})
	defer close(done)

	go a.fetchLoop(ctx)
	go a.uploadLoop(ctx)
	a.scheduleLoop(ctx)
	// Final upload attempt so short-lived runs don't lose data; it ships
	// open sketch windows too instead of waiting for the grid to pass them.
	a.flush(context.Background(), true)
	return ctx.Err()
}

// fetchLoop polls the controller. The agent pulls; the controller never
// pushes (§3.3.2). Each wait is armed before its fetch, so polls are spaced
// start to start whatever a fetch takes, as a ticker spaces them.
func (a *Agent) fetchLoop(ctx context.Context) {
	for {
		timer := a.clock.NewTimer(fetchInterval)
		a.fetchOnce(ctx)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// detailFetcher is optionally implemented by fetchers that report how a
// pinglist was obtained; *controller.Client does, so the agent can tell a
// cheap 304 revalidation from a full download.
type detailFetcher interface {
	FetchDetail(ctx context.Context, server string) (controller.FetchResult, error)
}

func (a *Agent) fetchOnce(ctx context.Context) {
	fetchStart := a.clock.Now()
	var f *pinglist.File
	var err error
	var res controller.FetchResult
	if df, ok := a.cfg.Controller.(detailFetcher); ok {
		res, err = df.FetchDetail(ctx, a.cfg.ServerName)
		if err == nil {
			f = res.File
			a.reg.Counter("agent.fetch_bytes").Add(res.BytesOnWire)
		}
	} else {
		f, err = a.cfg.Controller.Fetch(ctx, a.cfg.ServerName)
	}
	if err != nil {
		var noPL *controller.ErrNoPinglist
		if errors.As(err, &noPL) {
			// Controller is up but has no pinglist: the fleet-wide stop
			// signal. Fail closed immediately (§3.4.2).
			a.reg.Counter("agent.fetch_no_pinglist").Inc()
			a.failClosed("no pinglist")
			return
		}
		a.reg.Counter("agent.fetch_errors").Inc()
		a.mu.Lock()
		a.fetchFailures++
		failures := a.fetchFailures
		a.mu.Unlock()
		if failures >= MaxFetchFailures {
			a.failClosed("controller unreachable")
		}
		return
	}
	a.reg.Counter("agent.fetches_ok").Inc()
	a.reg.Histogram("agent.fetch.duration").Observe(a.clock.Since(fetchStart))
	if res.NotModified {
		// The controller revalidated our cached copy with a 304: the
		// pinglist is unchanged and the fetch cost no body bytes.
		a.reg.Counter("agent.fetch_not_modified").Inc()
	}
	if res.Delta {
		// A changed pinglist arrived as a verified patch instead of a full
		// download.
		a.reg.Counter("agent.fetch_delta").Inc()
	}
	if res.DeltaFallback {
		// A patch arrived but was unusable: its bytes were wasted and the
		// full download above replaced it.
		a.reg.Counter("agent.fetch_delta_fallbacks").Inc()
	}
	a.mu.Lock()
	a.fetchFailures = 0
	sameVersion := a.version == f.Version && !a.failedClosed
	a.mu.Unlock()
	if sameVersion {
		return // unchanged pinglist: nothing to apply
	}
	if err := a.applyPinglist(f); err != nil {
		a.reg.Counter("agent.pinglist_invalid").Inc()
	}
}

// scheduleLoop dispatches each probe when the schedule has it due, bounded
// by the concurrency limit. A single goroutine pops the schedule; probe
// execution fans out to short-lived workers.
func (a *Agent) scheduleLoop(ctx context.Context) {
	sem := make(chan struct{}, maxConcurrentProbes)
	for {
		a.mu.Lock()
		t, wait, due := a.sched.Pop(a.clock.Now())
		a.mu.Unlock()

		if due {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			go func(t Target) {
				defer func() { <-sem }()
				a.probeOne(ctx, t)
			}(t)
			continue
		}

		timer := a.clock.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-a.peersChanged:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// probeOne executes a single probe and records the outcome. The sampling
// decision is one atomic load when tracing is off or this probe loses the
// 1-in-N draw; only a sampled probe pays for the trace context.
func (a *Agent) probeOne(ctx context.Context, t Target) {
	var tid trace.TraceID
	if a.tracer != nil {
		if tid = a.tracer.SampleProbe(); tid != 0 {
			ctx = trace.NewContext(ctx, a.tracer, tid)
		}
	}
	// A probe the scheduler dispatched just before the agent failed closed
	// must not start after it: the stop and the start stamp are ordered by
	// the one lock, so no record's Start is later than the stop.
	a.mu.Lock()
	stopped := a.failedClosed
	start := a.clock.Now()
	a.mu.Unlock()
	if stopped {
		return
	}
	out, err := a.cfg.Prober.Probe(ctx, t)
	rec := probe.Record{
		Start:      start,
		Src:        a.cfg.SourceAddr,
		SrcPort:    out.SrcPort,
		Dst:        t.Addr,
		DstPort:    t.Port,
		Class:      t.Class,
		Proto:      t.Proto,
		QoS:        t.QoS,
		PayloadLen: t.PayloadLen,
		RTT:        out.ConnectRTT,
		PayloadRTT: out.PayloadRTT,
	}
	if err != nil {
		rec.Err = truncateErr(err)
	}
	if tid != 0 {
		// Register the record's wire identity first, then record the span:
		// the ingest side can only re-attach the trace via the table.
		a.tracer.RegisterProbe(tid, rec.Src, rec.SrcPort, rec.Start.UnixNano())
		a.tring.Span(tid, trace.StageProbe, t.Addr.String(), start, a.clock.Now(), err == nil)
	}
	a.record(rec)
}

func truncateErr(err error) string {
	s := err.Error()
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

func (a *Agent) kickUpload() {
	select {
	case a.uploadKick <- struct{}{}:
	default:
	}
}

// uploadLoop periodically ships the buffer to the uploader; a full buffer
// triggers an early ship.
func (a *Agent) uploadLoop(ctx context.Context) {
	ticker := a.clock.NewTicker(uploadInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		case <-a.uploadKick:
		}
		a.flush(ctx, false)
	}
}

// flush uploads everything buffered as one PMB1 batch: the raw records plus
// the sketches of the windows the grid has moved past. On persistent failure
// the batch is discarded: bounded memory wins over completeness (§3.4.2); the
// local log still has the raw data. final additionally cuts the still-open
// sketch windows — the shutdown path must not strand partial windows.
func (a *Agent) flush(ctx context.Context, final bool) {
	if a.cfg.Uploader == nil {
		return // record() stages nothing without an uploader
	}
	// encMu serializes the upload loop's flush with the final flush in Run
	// and guards the per-flush state (encBuf, flushTIDs) reused by the next
	// flush — the Uploader contract says the batch is only valid in the call.
	a.encMu.Lock()
	defer a.encMu.Unlock()
	a.mu.Lock()
	batch := a.takeBufferLocked()
	flushStart := a.clock.Now()
	cut := a.sketch.WindowIndex(flushStart)
	if final {
		cut = math.MaxInt64
	}
	data, sketches, skRecords := a.sketch.AppendUpload(a.encBuf[:0], batch, cut)
	encEnd := a.clock.Now()
	a.mu.Unlock()
	a.encBuf = data[:0]
	if len(batch) == 0 && sketches == 0 {
		return
	}
	// Sampled probes riding in this batch get encode/upload spans. Sketched
	// probes never do: record() routes traced probes to the raw buffer.
	a.flushTIDs = a.flushTIDs[:0]
	if a.tracer != nil && a.tracer.HasActiveProbes() {
		for i := range batch {
			r := &batch[i]
			if tid := a.tracer.MatchProbe(r.Src, r.SrcPort, r.Start.UnixNano()); tid != 0 {
				a.flushTIDs = append(a.flushTIDs, tid)
			}
		}
	}
	for _, tid := range a.flushTIDs {
		a.tring.SpanAttr(tid, trace.StageEncode, "batch", flushStart, encEnd, true, "records", int64(len(batch)))
	}
	// Every upload error is worth retrying: the store is the one thing an
	// agent uploads to. The backoff is jittered so a fleet retrying against a
	// recovering store does not do so in lockstep, and ctx-aware so shutdown
	// is not held mid-backoff.
	policy := simclock.RetryPolicy{Attempts: uploadRetries, Base: time.Second, Max: uploadBackoffMax}
	st, err := simclock.Retry(ctx, a.clock, policy, func() error {
		upStart := a.clock.Now()
		err := a.cfg.Uploader.Upload(ctx, data)
		if a.tracer != nil {
			for _, tid := range a.flushTIDs {
				a.tring.SpanAttr(tid, trace.StageUpload, "batch", upStart, a.clock.Now(), err == nil, "bytes", int64(len(data)))
			}
		}
		if err != nil {
			a.reg.Counter("agent.upload_errors").Inc()
			return simclock.Transient(err)
		}
		return nil
	})
	if err == nil {
		if a.tracer != nil {
			a.tracer.Freshness().Mark(trace.StageUpload)
		}
		a.reg.Counter("agent.uploads_ok").Inc()
		a.reg.Histogram("agent.flush.duration").Observe(a.clock.Since(flushStart))
		a.reg.Counter("agent.uploaded_records").Add(int64(len(batch)) + skRecords)
		a.cUploadRaw.Add(int64(len(batch)))
		a.cUploadSketch.Add(int64(sketches))
		a.cUploadBytes.Add(int64(len(data)))
		return
	}
	// The upload loop's next tick may already be due, so one more backoff
	// stands between this batch's last attempt and the next batch's first.
	if ctx.Err() == nil {
		simclock.Sleep(ctx, a.clock, policy.Backoff(st.Attempts-1))
	}
	a.reg.Counter("agent.uploads_discarded").Inc()
	a.reg.Counter("agent.discarded_records").Add(int64(len(batch)) + skRecords)
}
