// Package trace is Pingmesh's in-process tracing and pipeline
// self-monitoring layer: the answer to "who watches Pingmesh?" (§3.5 — the
// paper insists the measurement system itself must be monitored: agents
// have safety rails, the controller has Autopilot watchdogs, and the data
// path has an explicit freshness budget).
//
// It provides three things, all stdlib-only and allocation-conscious:
//
//   - A process-global sampled tracer: one in every N probes carries a
//     trace through the whole pipeline — agent scheduling, netlib probe,
//     record encode, upload, ingest scan, SCOPE job, DSA cycle, portal
//     snapshot publish. Sampling off (the default) costs exactly one
//     atomic load on the probe path and zero allocations.
//   - Fixed-size per-component span ring buffers, dumpable as JSON from
//     /debug/trace without stopping the world.
//   - Freshness marks: each pipeline stage records when it last completed,
//     and the §3.5 data-freshness budget (5-minute perfcounter path,
//     20-minute Cosmos/SCOPE path) turns the marks into a Health
//     verdict that the Autopilot "pingmesh-stale" watchdog and the portal
//     /health endpoint consume.
//
// Probe records cross process boundaries in PMB1 upload batches (agent →
// Cosmos → SCOPE), and a trace does not ride the record: the wire format
// carries no tracing field. Instead the tracer keeps a small table of
// in-flight sampled probes keyed by the record's identity (source address,
// source port, start nanosecond — fields a raw PMB1 record carries, and the
// agent ships a sampled probe raw, never in a sketch); the ingest scanner
// re-attaches the trace when it encounters the matching record. The table is an immutable slice behind an atomic pointer, so the
// ingest hot path pays one atomic load when no trace is in flight.
package trace

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/simclock"
)

// TraceID identifies one sampled probe's journey through the pipeline.
// Zero means "not sampled".
type TraceID uint64

// maxActiveProbes bounds the in-flight probe table. Sampled probes that
// never reach ingest (dropped uploads, retired streams) are evicted oldest
// first, so a stalled pipeline cannot grow the table.
const maxActiveProbes = 64

// DefaultRingSize is the per-component span ring capacity.
const DefaultRingSize = 256

// Tracer is the process-wide tracing state: sampling decision, span rings,
// the in-flight probe table, and the freshness marks. All methods are safe
// for concurrent use.
type Tracer struct {
	clock simclock.Clock
	fresh *Freshness

	every atomic.Uint64 // sample 1-in-N probes; 0 = sampling off
	ctr   atomic.Uint64 // probes seen since start (sampling counter)
	ids   atomic.Uint64 // trace ID allocator

	// probes is the immutable in-flight table; writers swap it under mu,
	// readers (the ingest scan) load it with a single atomic operation.
	probes atomic.Pointer[[]probeEntry]

	mu      sync.Mutex
	rings   map[string]*Ring
	ringCap int
}

type probeEntry struct {
	start int64 // record Start.UnixNano(): compared first, most selective
	id    TraceID
	src   netip.Addr
	port  uint16
}

// New returns a tracer on the given clock (nil for wall time) with
// sampling off.
func New(clock simclock.Clock) *Tracer {
	if clock == nil {
		clock = simclock.NewReal()
	}
	t := &Tracer{
		clock:   clock,
		fresh:   NewFreshness(clock),
		rings:   make(map[string]*Ring),
		ringCap: DefaultRingSize,
	}
	t.probes.Store(&[]probeEntry{})
	return t
}

var defaultTracer = New(simclock.NewReal())

// Default returns the process-global tracer the binaries share. Components
// accept an explicit *Tracer so tests and simulations can isolate theirs.
func Default() *Tracer { return defaultTracer }

// Now returns the tracer clock's current time. Spans across components are
// stamped from one clock so a dumped trace has a coherent timeline.
func (t *Tracer) Now() time.Time { return t.clock.Now() }

// Freshness returns the tracer's freshness marks.
func (t *Tracer) Freshness() *Freshness { return t.fresh }

// SetSampleEvery turns sampling on (one traced probe per n) or off (n=0).
func (t *Tracer) SetSampleEvery(n uint64) { t.every.Store(n) }

// SampleEvery returns the current 1-in-N sampling rate (0 = off).
func (t *Tracer) SampleEvery() uint64 { return t.every.Load() }

// SampleProbe is the probe-path sampling decision: it returns a fresh
// TraceID for one in every N probes and zero otherwise. With sampling off
// the cost is a single atomic load and no allocations — this is the
// contract the tier-3 alloc guards pin.
func (t *Tracer) SampleProbe() TraceID {
	n := t.every.Load()
	if n == 0 {
		return 0
	}
	if t.ctr.Add(1)%n != 0 {
		return 0
	}
	return TraceID(t.ids.Add(1))
}

// Ring returns the named component's span ring, creating it on first use.
// Components resolve their ring once and keep the pointer.
func (t *Tracer) Ring(component string) *Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rings[component]
	if !ok {
		r = &Ring{component: component, buf: make([]Span, t.ringCap)}
		t.rings[component] = r
	}
	return r
}

// RegisterProbe records a sampled probe's wire identity so the ingest scan
// can re-attach the trace when the record comes back out of storage. The
// table is bounded; the oldest entry is evicted at capacity.
func (t *Tracer) RegisterProbe(id TraceID, src netip.Addr, srcPort uint16, startUnixNano int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.probes.Load()
	next := make([]probeEntry, 0, len(old)+1)
	if len(old) >= maxActiveProbes {
		old = old[1:]
	}
	next = append(next, old...)
	next = append(next, probeEntry{start: startUnixNano, id: id, src: src, port: srcPort})
	t.probes.Store(&next)
}

// HasActiveProbes reports whether any sampled probe is awaiting ingest.
// One atomic load: the ingest hot path gates on this before attempting a
// match, so the unsampled steady state pays nothing else.
func (t *Tracer) HasActiveProbes() bool {
	return len(*t.probes.Load()) > 0
}

// MatchProbe returns the trace ID registered for a record identity, or
// zero. Allocation-free: it scans the immutable table, comparing the start
// nanosecond first (the most selective field).
func (t *Tracer) MatchProbe(src netip.Addr, srcPort uint16, startUnixNano int64) TraceID {
	tab := *t.probes.Load()
	for i := range tab {
		e := &tab[i]
		if e.start == startUnixNano && e.port == srcPort && e.src == src {
			return e.id
		}
	}
	return 0
}

// ActiveProbeIDs returns the trace IDs currently awaiting completion,
// oldest first. The portal stamps its publish span with these.
func (t *Tracer) ActiveProbeIDs() []TraceID {
	tab := *t.probes.Load()
	if len(tab) == 0 {
		return nil
	}
	out := make([]TraceID, len(tab))
	for i := range tab {
		out[i] = tab[i].id
	}
	return out
}

// CompleteProbes removes traces from the in-flight table, typically after
// the analysis cycle that ingested them has published. Completing restores
// the ingest fast path (HasActiveProbes goes false once the table drains).
func (t *Tracer) CompleteProbes(ids []TraceID) {
	if len(ids) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.probes.Load()
	next := make([]probeEntry, 0, len(old))
	for _, e := range old {
		done := false
		for _, id := range ids {
			if e.id == id {
				done = true
				break
			}
		}
		if !done {
			next = append(next, e)
		}
	}
	t.probes.Store(&next)
}

// ctxKey carries a sampled trace through context so layers below the agent
// (netlib probers) can record spans without new plumbing on every call.
type ctxKey struct{}

type ctxTrace struct {
	tr *Tracer
	id TraceID
}

// NewContext returns ctx carrying a sampled trace. Only sampled probes pay
// for the context allocation; unsampled probes keep the caller's ctx.
func NewContext(ctx context.Context, tr *Tracer, id TraceID) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxTrace{tr: tr, id: id})
}

// FromContext extracts the trace a context carries, if any.
func FromContext(ctx context.Context) (*Tracer, TraceID) {
	if v, ok := ctx.Value(ctxKey{}).(ctxTrace); ok {
		return v.tr, v.id
	}
	return nil, 0
}
