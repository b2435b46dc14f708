// Package agent implements the Pingmesh Agent (§3.4): the shared service
// that runs on every server. Its job is deliberately simple — download the
// pinglist from the Pingmesh Controller, probe the peers in it, and upload
// the results — but it must be fail-closed and nearly free, because a bug
// in code running on every server can take the whole fleet down.
//
// Safety rails mirrored from the paper, hard-coded here exactly as they
// are hard-coded in the production agent:
//
//   - the probe interval per peer never goes below pinglist.MinProbeInterval,
//     not even across a pinglist update (Schedule);
//   - probe payloads never exceed netlib.MaxPayload;
//   - after MaxFetchFailures consecutive controller failures, or when the
//     controller is up but has no pinglist, the agent removes all peers
//     and stops probing (it keeps answering probes from others);
//   - upload failures are retried a bounded number of times and then the
//     in-memory data is discarded, so memory stays bounded;
//   - results are also written to a size-capped local log.
//
// An agent with an Uploader ships one format, PMB1 (probe.AppendBinaryBatch):
// healthy probes summarized per peer per probe.Window, anomalies and traced
// probes raw (ShipsRaw). CSV is the local log's format, not the wire's.
package agent

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

// Hard safety limits and cadences (§3.4.2). These are constants, not
// configuration, by design: they bound the worst-case traffic and memory the
// fleet can spend even if a controller bug hands out an insane pinglist.
const (
	// MaxFetchFailures is how many consecutive controller-fetch failures
	// the agent tolerates before failing closed.
	MaxFetchFailures = 3
	// maxConcurrentProbes bounds in-flight probes.
	maxConcurrentProbes = 8
	// fetchInterval is how often the agent polls the controller for a new
	// pinglist (§3.3.2: agents pull, the controller never pushes).
	fetchInterval = 5 * time.Minute
	// uploadInterval is how often staged results are uploaded.
	uploadInterval = time.Minute
	// uploadThreshold uploads early once this many raw records are staged:
	// in an incident it is failed probes that fill the raw buffer.
	uploadThreshold = 4096
	// uploadRetries bounds the attempts at one upload before its data is
	// discarded (§3.4.2: bounded memory beats complete data).
	uploadRetries = 3
	// maxBufferedRecords bounds the raw records awaiting upload; beyond it
	// the oldest are dropped.
	maxBufferedRecords = 65536
)

// Target is one probing destination resolved from a pinglist peer.
type Target struct {
	Addr       netip.Addr
	Port       uint16
	Class      probe.Class
	Proto      probe.Proto
	QoS        probe.QoS
	PayloadLen int
}

// Outcome is what a Prober measures for one probe.
type Outcome struct {
	ConnectRTT time.Duration
	PayloadRTT time.Duration
	SrcPort    uint16
}

// Prober performs one probe against a target. Implementations exist for
// the real network (netlib-backed) and for the simulator.
type Prober interface {
	Probe(ctx context.Context, t Target) (Outcome, error)
}

// Uploader receives encoded PMB1 batches (the DSA ingestion point; in
// production this is Cosmos behind a VIP). The batch slice is only valid
// for the duration of the call — the agent reuses one encode buffer across
// uploads — so implementations that retain the bytes must copy them
// (cosmos.Store.Append does).
type Uploader interface {
	Upload(ctx context.Context, batch []byte) error
}

// Fetcher fetches pinglists; *controller.Client implements it.
type Fetcher interface {
	Fetch(ctx context.Context, server string) (*pinglist.File, error)
}

// Config configures an Agent.
type Config struct {
	// ServerName is this server's name, used to fetch its pinglist.
	ServerName string
	// SourceAddr is this server's IP, stamped into records.
	SourceAddr netip.Addr
	// Controller fetches pinglists.
	Controller Fetcher
	// Prober executes probes.
	Prober Prober
	// Uploader receives result batches. May be nil: the local log and the
	// perf counters are then the agent's only outputs; nothing is buffered
	// or sketched.
	Uploader Uploader
	// Clock defaults to wall time.
	Clock simclock.Clock

	// LocalLog, if non-nil, additionally receives every record (§3.4.2:
	// the agent writes latency data to size-capped local log files).
	LocalLog *LocalLog
	// Tracer, if non-nil, lets sampled probes carry an end-to-end trace
	// and marks upload freshness. Nil disables tracing entirely.
	Tracer *trace.Tracer
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.ServerName == "" {
		return out, errors.New("agent: ServerName required")
	}
	if !out.SourceAddr.IsValid() {
		return out, errors.New("agent: SourceAddr required")
	}
	if out.Controller == nil {
		return out, errors.New("agent: Controller required")
	}
	if out.Prober == nil {
		return out, errors.New("agent: Prober required")
	}
	if out.Clock == nil {
		out.Clock = simclock.NewReal()
	}
	return out, nil
}

// Agent is one server's Pingmesh Agent.
type Agent struct {
	cfg    Config
	clock  simclock.Clock
	reg    *metrics.Registry
	tracer *trace.Tracer // nil when tracing is disabled
	tring  *trace.Ring   // the "agent" span ring (nil iff tracer is nil)

	// Perf counters and per-class histograms are resolved once at New so
	// the record() hot path never builds a metric name (tier-3 guarded:
	// TestProbeTraceDisabledZeroAlloc).
	cProbesTotal  *metrics.Counter
	cProbesFailed *metrics.Counter
	cProbesOK     *metrics.Counter
	cDropped      *metrics.Counter
	cRTT3s        *metrics.Counter
	cRTT9s        *metrics.Counter
	cUploadRaw    *metrics.Counter // agent.upload_raw_records
	cUploadSketch *metrics.Counter // agent.upload_sketches
	cUploadBytes  *metrics.Counter // agent.upload_bytes
	hRTT          [3]*metrics.LockedHistogram
	hPayloadRTT   [3]*metrics.LockedHistogram

	mu            sync.Mutex
	sched         *Schedule // empty before the first pinglist and failed closed
	version       string
	fetchFailures int
	failedClosed  bool
	// buffer holds the raw records awaiting upload. At maxBufferedRecords it
	// is a ring: head is the oldest record, the one the next overwrites.
	buffer []probe.Record
	head   int
	sketch *SketchAccumulator // nil without an Uploader

	peersChanged chan struct{} // kicks the scheduler
	uploadKick   chan struct{} // kicks the uploader on buffer-threshold

	// encMu serializes flushes; encBuf is the batch encode buffer reused
	// across uploads so steady-state encoding allocates nothing. flushTIDs
	// is the per-flush scratch of sampled traces riding in the batch.
	encMu     sync.Mutex
	encBuf    []byte
	flushTIDs []trace.TraceID
}

// New validates the configuration and returns an idle agent; call Run to
// start it.
func New(cfg Config) (*Agent, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:          c,
		clock:        c.Clock,
		sched:        new(Schedule),
		reg:          metrics.NewRegistry(),
		tracer:       c.Tracer,
		peersChanged: make(chan struct{}, 1),
		uploadKick:   make(chan struct{}, 1),
	}
	if a.tracer != nil {
		a.tring = a.tracer.Ring("agent")
		a.reg.GaugeFunc("agent.last_upload_age", func() int64 {
			return a.tracer.Freshness().AgeMillis(trace.StageUpload)
		})
	}
	// Resolve every per-record metric once: record() must not build names.
	a.cProbesTotal = a.reg.Counter("agent.probes_total")
	a.cProbesFailed = a.reg.Counter("agent.probes_failed")
	a.cProbesOK = a.reg.Counter("agent.probes_ok")
	a.cDropped = a.reg.Counter("agent.records_dropped")
	a.cRTT3s = a.reg.Counter("agent.rtt_3s")
	a.cRTT9s = a.reg.Counter("agent.rtt_9s")
	a.cUploadRaw = a.reg.Counter("agent.upload_raw_records")
	a.cUploadSketch = a.reg.Counter("agent.upload_sketches")
	a.cUploadBytes = a.reg.Counter("agent.upload_bytes")
	// Sketches only leave in an upload, so only an uploading agent keeps one.
	if c.Uploader != nil {
		a.sketch = NewSketchAccumulator(c.SourceAddr, probe.Window)
	}
	for cls := probe.IntraPod; cls <= probe.InterDC; cls++ {
		a.hRTT[cls] = a.reg.Histogram("agent.rtt." + cls.String())
		a.hPayloadRTT[cls] = a.reg.Histogram("agent.rtt_payload." + cls.String())
	}
	return a, nil
}

// Metrics returns the agent's perf counters (collected by the Autopilot
// Perfcounter Aggregator in §3.5): per-class RTT histograms, probe and
// drop counters, peer gauge.
func (a *Agent) Metrics() *metrics.Registry { return a.reg }

// PeerCount reports how many peers the agent currently probes.
func (a *Agent) PeerCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sched.Len()
}

// FailedClosed reports whether the agent has stopped probing because the
// controller is unreachable or pinglist-less.
func (a *Agent) FailedClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.failedClosed
}

// Version returns the pinglist version currently applied.
func (a *Agent) Version() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// BufferedRecords returns a copy of the raw records the next upload carries,
// oldest first: the ones ShipsRaw claims and the probes of sampled traces.
// It is empty without an Uploader.
func (a *Agent) BufferedRecords() []probe.Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bufferedLocked()
}

// bufferedLocked returns a copy of the raw buffer, oldest first.
func (a *Agent) bufferedLocked() []probe.Record {
	return append(append([]probe.Record(nil), a.buffer[a.head:]...), a.buffer[:a.head]...)
}

// takeBufferLocked empties the raw buffer and returns its records, oldest
// first: the buffer itself unless it has wrapped.
func (a *Agent) takeBufferLocked() []probe.Record {
	batch := a.buffer
	if a.head != 0 {
		batch = a.bufferedLocked()
	}
	a.buffer, a.head = nil, 0
	return batch
}

// applyPinglist schedules a fetched file (Reset enforces the hard safety
// limits). Peers the file keeps keep their next probe (Start).
func (a *Agent) applyPinglist(f *pinglist.File) error {
	sched := new(Schedule)
	if err := sched.Reset(a.cfg.SourceAddr, f); err != nil {
		return err
	}
	a.mu.Lock()
	sched.Start(a.clock.Now(), a.sched)
	a.sched = sched
	a.version = f.Version
	a.failedClosed = false
	a.fetchFailures = 0
	a.mu.Unlock()
	a.reg.Gauge("agent.peers").Set(int64(sched.Len()))
	a.kick()
	return nil
}

// failClosed removes all peers and stops probing (§3.4.2). The agent keeps
// responding to probes from other servers; only its own probing stops.
func (a *Agent) failClosed(reason string) {
	a.mu.Lock()
	already := a.failedClosed
	a.sched = new(Schedule)
	a.failedClosed = true
	a.mu.Unlock()
	if !already {
		a.reg.Counter("agent.fail_closed").Inc()
		a.reg.Gauge("agent.peers").Set(0)
		_ = reason
	}
	a.kick()
}

func (a *Agent) kick() {
	select {
	case a.peersChanged <- struct{}{}:
	default:
	}
}

// record takes one result: it stages it for the next upload, mirrors it to
// the local log and updates the perf counters. Without an Uploader nothing
// is staged: the counters, the histograms and the local log are the agent's
// only outputs, and nothing is held for a flush that never drains it.
func (a *Agent) record(r probe.Record) {
	if a.cfg.Uploader != nil {
		a.stage(&r)
	}
	if a.cfg.LocalLog != nil {
		a.cfg.LocalLog.Write(&r)
	}

	a.cProbesTotal.Inc()
	if !r.Success() {
		a.cProbesFailed.Inc()
		return
	}
	a.cProbesOK.Inc()
	if cls := int(r.Class); cls >= 0 && cls < len(a.hRTT) {
		a.hRTT[cls].Observe(r.RTT)
		if r.PayloadRTT > 0 {
			a.hPayloadRTT[cls].Observe(r.PayloadRTT)
		}
	}
	// Count the SYN-retransmit latency signatures the drop-rate heuristic
	// uses (§4.2): ~3s means one drop, ~9s means correlated drops.
	switch {
	case r.RTT >= 2500*time.Millisecond && r.RTT < 6*time.Second:
		a.cRTT3s.Inc()
	case r.RTT >= 6*time.Second && r.RTT < 15*time.Second:
		a.cRTT9s.Inc()
	}
}

// stage holds one result for the next upload, enforcing the memory bound.
// The anomaly policy routes here: what ShipsRaw claims, and the probes of a
// sampled trace, keep per-record identity and go through the raw buffer;
// the rest folds into the per-peer sketch accumulator.
func (a *Agent) stage(r *probe.Record) {
	sketchable := !ShipsRaw(r)
	if sketchable && a.tracer != nil && a.tracer.HasActiveProbes() &&
		a.tracer.MatchProbe(r.Src, r.SrcPort, r.Start.UnixNano()) != 0 {
		sketchable = false // a sampled trace needs its record on the wire
	}
	a.mu.Lock()
	switch {
	case sketchable:
		a.sketch.Observe(r)
	case len(a.buffer) < maxBufferedRecords:
		a.buffer = append(a.buffer, *r)
	default:
		// Drop oldest: bounded memory beats complete data (§3.4.2).
		a.buffer[a.head] = *r
		a.head = (a.head + 1) % len(a.buffer)
		a.cDropped.Inc()
	}
	n := len(a.buffer)
	a.mu.Unlock()
	// In an incident it is failed probes that fill the raw buffer.
	if n >= uploadThreshold {
		a.kickUpload()
	}
}

// DropRate computes the agent's local packet drop estimate from its
// counters, using the paper's heuristic.
func (a *Agent) DropRate() float64 {
	snap := a.reg.Snapshot()
	ok := snap.Counters["agent.probes_ok"]
	if ok == 0 {
		return 0
	}
	return float64(snap.Counters["agent.rtt_3s"]+snap.Counters["agent.rtt_9s"]) / float64(ok)
}
