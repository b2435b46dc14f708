package agent

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
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
// start to start whatever a fetch takes, as a ticker spaces them; with
// FetchJitter set, each wait is independently shortened by up to that
// fraction, seeded per server so the fleet's schedules decorrelate
// deterministically.
func (a *Agent) fetchLoop(ctx context.Context) {
	rng := rand.New(rand.NewSource(seedFor(a.cfg.ServerName)))
	for {
		timer := a.clock.NewTimer(a.fetchWait(rng))
		a.fetchOnce(ctx)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// fetchWait draws the next poll delay: FetchInterval shortened by up to
// the jitter fraction, never lengthened.
func (a *Agent) fetchWait(rng *rand.Rand) time.Duration {
	j := a.cfg.FetchJitter
	if j <= 0 {
		return a.cfg.FetchInterval
	}
	return time.Duration(float64(a.cfg.FetchInterval) * (1 - j*rng.Float64()))
}

// seedFor hashes a server name into a deterministic per-agent RNG seed.
func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
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
	notModified := false
	delta := false
	if df, ok := a.cfg.Controller.(detailFetcher); ok {
		var res controller.FetchResult
		res, err = df.FetchDetail(ctx, a.cfg.ServerName)
		if err == nil {
			f = res.File
			notModified = res.NotModified
			delta = res.Delta
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
	if notModified {
		// The controller revalidated our cached copy with a 304: the
		// pinglist is unchanged and the fetch cost no body bytes.
		a.reg.Counter("agent.fetch_not_modified").Inc()
	}
	if delta {
		// A changed pinglist arrived as a verified patch instead of a full
		// download.
		a.reg.Counter("agent.fetch_delta").Inc()
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

// scheduleLoop runs probes at each peer's cadence, bounded by the
// concurrency limit. A single goroutine owns the schedule; probe execution
// fans out to short-lived workers.
func (a *Agent) scheduleLoop(ctx context.Context) {
	sem := make(chan struct{}, maxConcurrentProbes)
	for {
		a.mu.Lock()
		a.sortPeersLocked()
		var wait time.Duration
		var due *peerState
		if len(a.peers) == 0 {
			wait = time.Hour // idle until peersChanged
		} else {
			now := a.clock.Now()
			first := &a.peers[0]
			if first.next.After(now) {
				wait = first.next.Sub(now)
			} else {
				due = &peerState{target: first.target} // copy for the worker
				first.next = now.Add(first.every)
			}
		}
		a.mu.Unlock()

		if due != nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			go func(t Target) {
				defer func() { <-sem }()
				a.probeOne(ctx, t)
			}(due.target)
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
	ticker := a.clock.NewTicker(a.cfg.UploadInterval)
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
		// No uploader configured: records stay buffered for in-process
		// consumers; record() already enforces the memory bound.
		return
	}
	// encMu serializes the upload loop's flush with the final flush in Run
	// and guards the pooled per-flush state (encBuf, flushTIDs,
	// pendingSketches), so all of it is reused verbatim on the next flush —
	// the Uploader contract says the batch is only valid during the call.
	a.encMu.Lock()
	defer a.encMu.Unlock()
	a.mu.Lock()
	batch := a.takeBufferLocked()
	cut := a.sketch.WindowIndex(a.clock.Now())
	if final {
		cut = math.MaxInt64
	}
	sks := a.sketch.CutBefore(cut, a.pendingSketches[:0])
	a.pendingSketches = sks
	a.mu.Unlock()
	if len(batch) == 0 && len(sks) == 0 {
		return
	}
	if len(sks) > 0 {
		// The cut sketches own freelisted histograms; hand them back after
		// the upload settles, win or lose.
		defer func() {
			a.mu.Lock()
			a.sketch.Release(sks)
			a.mu.Unlock()
		}()
	}
	flushStart := a.clock.Now()
	var skRecords int64
	for i := range sks {
		skRecords += int64(sks[i].RTT.Count())
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
	encStart := a.clock.Now()
	data := probe.AppendBinaryBatch(a.encBuf[:0], batch, sks)
	a.encBuf = data[:0]
	encEnd := a.clock.Now()
	for _, tid := range a.flushTIDs {
		a.tring.SpanAttr(tid, trace.StageEncode, "batch", encStart, encEnd, true, "records", int64(len(batch)))
	}
	// Every upload error is worth retrying: the store is the one thing an
	// agent uploads to. The backoff is jittered so a fleet retrying against a
	// recovering store does not do so in lockstep, and ctx-aware so shutdown
	// is not held mid-backoff.
	policy := simclock.RetryPolicy{Attempts: a.cfg.UploadRetries, Base: time.Second, Max: uploadBackoffMax}
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
		a.cUploadSketch.Add(int64(len(sks)))
		a.cUploadBytes.Add(int64(len(data)))
		return
	}
	// The upload loop's next tick may already be due, so one more backoff
	// stands between this batch's last attempt and the next batch's first.
	if ctx.Err() == nil {
		simclock.Sleep(ctx, a.clock, simclock.Backoff(policy.Base, policy.Max, st.Attempts-1))
	}
	a.reg.Counter("agent.uploads_discarded").Inc()
	a.reg.Counter("agent.discarded_records").Add(int64(len(batch)) + skRecords)
}
