package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (delta must be >= 0).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta and returns the new value: the form for a
// gauge several goroutines keep as a running count, where a Set of a value
// computed elsewhere could land out of order.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LockedHistogram wraps Histogram with a mutex so the agent's probing
// goroutines and the telemetry encoder can share it.
type LockedHistogram struct {
	mu sync.Mutex
	h  *Histogram
}

// NewLockedLatencyHistogram returns a concurrent latency histogram.
func NewLockedLatencyHistogram() *LockedHistogram {
	return &LockedHistogram{h: NewLatencyHistogram()}
}

// Observe records one duration.
func (l *LockedHistogram) Observe(d time.Duration) {
	l.mu.Lock()
	l.h.Observe(d)
	l.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (l *LockedHistogram) Snapshot() *Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Clone()
}

// SnapshotInto copies the live histogram into dst and returns dst,
// avoiding Snapshot's per-call clone on hot scrape paths (the exposition
// writer reuses one scratch histogram across every scrape). A nil dst
// allocates a fresh copy.
func (l *LockedHistogram) SnapshotInto(dst *Histogram) *Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	if dst == nil {
		return l.h.Clone()
	}
	l.h.CopyInto(dst)
	return dst
}

// Registry holds named counters, gauges, and histograms for one component.
// The exposition writer and the PMT1 telemetry encoder walk it with Visit.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*LockedHistogram
	// entries is every metric in name order, maintained at registration
	// time so Visit iterates stably without sorting (and therefore without
	// allocating) on every scrape.
	entries []metricEntry
}

// metricEntry is one registered metric: exactly one of c, g, h, gf is set
// (a gf entry also carries a scratch Gauge the callback is evaluated into
// at visit time, so Visitor needs no new method and scrapes stay
// allocation-free).
type metricEntry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *LockedHistogram
	gf   func() int64
}

// insertEntry places e at its sorted position. Called with r.mu held, only
// when a new metric is created.
func (r *Registry) insertEntry(e metricEntry) {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].name >= e.name })
	r.entries = append(r.entries, metricEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*LockedHistogram),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.insertEntry(metricEntry{name: name, c: c})
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.insertEntry(metricEntry{name: name, g: g})
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at Visit and
// Snapshot time, so values that are a function of "now" (ages, queue
// depths) are always current without a ticker refreshing them.
// Re-registering a name replaces the callback. fn must be safe for
// concurrent use, must not block, and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.entries {
		if r.entries[i].gf != nil && r.entries[i].name == name {
			r.entries[i].gf = fn
			return
		}
	}
	r.insertEntry(metricEntry{name: name, g: &Gauge{}, gf: fn})
}
func (r *Registry) Histogram(name string) *LockedHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewLockedLatencyHistogram()
		r.histograms[name] = h
		r.insertEntry(metricEntry{name: name, h: h})
	}
	return h
}

// Visitor receives every metric of a registry in stable (name) order.
type Visitor interface {
	VisitCounter(name string, c *Counter)
	VisitGauge(name string, g *Gauge)
	VisitHistogram(name string, h *LockedHistogram)
}

// Visit walks every registered metric in name order. Registration from
// other goroutines blocks for the duration of the walk; the visitor must
// not call back into the registry.
func (r *Registry) Visit(v Visitor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.entries {
		e := &r.entries[i]
		switch {
		case e.gf != nil:
			e.g.Set(e.gf())
			v.VisitGauge(e.name, e.g)
		case e.c != nil:
			v.VisitCounter(e.name, e.c)
		case e.g != nil:
			v.VisitGauge(e.name, e.g)
		case e.h != nil:
			v.VisitHistogram(e.name, e.h)
		}
	}
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]Summary
}

// Snapshot captures all metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]Summary, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot().Summarize()
	}
	for i := range r.entries {
		if e := &r.entries[i]; e.gf != nil {
			s.Gauges[e.name] = e.gf()
		}
	}
	return s
}

// Names returns the sorted names of all registered metrics, for stable
// report output.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.entries))
	for i := range r.entries {
		names[i] = r.entries[i].name
	}
	return names
}
