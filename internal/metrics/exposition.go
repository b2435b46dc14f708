package metrics

import (
	"io"
	"strconv"
	"sync"
)

// namespace prefixes every exposed metric name, kubeskoop-exporter style:
// one scrape surface, one namespace, every component distinguishable by
// its own metric names ("controller.generations" →
// "pingmesh_controller_generations").
const namespace = "pingmesh_"

// Exposition renders registries in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative le-buckets (the non-empty ones, mirroring Histogram.CDF) plus
// _sum and _count, durations in seconds.
//
// One Exposition instance amortizes every scrape: the output buffer and
// the histogram snapshot scratch are reused under a mutex, so a
// steady-state scrape performs no allocations (CI tier 3 guards this).
type Exposition struct {
	mu      sync.Mutex
	sources []expoSource
	buf     []byte
	scratch *Histogram // reused LockedHistogram.SnapshotInto target

	// walk state while visiting one source
	prefix string
}

type expoSource struct {
	prefix string
	reg    *Registry
}

// NewExposition returns an empty exposition surface.
func NewExposition() *Exposition { return &Exposition{} }

// Add registers a registry to expose. prefix (may be empty) is prepended
// to every metric name from this registry, for disambiguating multiple
// instances of one component ("agent0", "agent1"). Metric names already
// carry their component ("controller.generations"), so most callers pass
// "".
func (e *Exposition) Add(prefix string, r *Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sources = append(e.sources, expoSource{prefix: prefix, reg: r})
}

// WriteTo renders every registered registry and writes the result to w in
// one call. It implements io.WriterTo.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.buf = e.buf[:0]
	for _, s := range e.sources {
		e.prefix = s.prefix
		s.reg.Visit(e)
	}
	n, err := w.Write(e.buf)
	return int64(n), err
}

// appendName appends namespace + prefix + name with every character
// outside the Prometheus name alphabet replaced by '_'.
func (e *Exposition) appendName(name string) {
	e.buf = append(e.buf, namespace...)
	if e.prefix != "" {
		e.buf = appendSanitized(e.buf, e.prefix)
		e.buf = append(e.buf, '_')
	}
	e.buf = appendSanitized(e.buf, name)
}

func appendSanitized(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			dst = append(dst, c)
		default:
			dst = append(dst, '_')
		}
	}
	return dst
}

func (e *Exposition) appendTypeLine(name, kind string) {
	e.buf = append(e.buf, "# TYPE "...)
	e.appendName(name)
	e.buf = append(e.buf, ' ')
	e.buf = append(e.buf, kind...)
	e.buf = append(e.buf, '\n')
}

// VisitCounter implements Visitor.
func (e *Exposition) VisitCounter(name string, c *Counter) {
	e.appendTypeLine(name, "counter")
	e.appendName(name)
	e.buf = append(e.buf, ' ')
	e.buf = strconv.AppendInt(e.buf, c.Value(), 10)
	e.buf = append(e.buf, '\n')
}

// VisitGauge implements Visitor.
func (e *Exposition) VisitGauge(name string, g *Gauge) {
	e.appendTypeLine(name, "gauge")
	e.appendName(name)
	e.buf = append(e.buf, ' ')
	e.buf = strconv.AppendInt(e.buf, g.Value(), 10)
	e.buf = append(e.buf, '\n')
}

// VisitHistogram implements Visitor: cumulative buckets in seconds, one
// line per non-empty bucket plus the +Inf catch-all.
func (e *Exposition) VisitHistogram(name string, h *LockedHistogram) {
	e.scratch = h.SnapshotInto(e.scratch)
	s := e.scratch
	e.appendTypeLine(name, "histogram")
	var cum uint64
	it := s.Buckets()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		cum += b.Count
		if b.Index >= len(latencyBounds) {
			// Overflow bucket; folded into +Inf below.
			continue
		}
		e.appendName(name)
		e.buf = append(e.buf, `_bucket{le="`...)
		e.buf = strconv.AppendFloat(e.buf, float64(latencyBounds[b.Index])/1e9, 'g', -1, 64)
		e.buf = append(e.buf, `"} `...)
		e.buf = strconv.AppendUint(e.buf, cum, 10)
		e.buf = append(e.buf, '\n')
	}
	e.appendName(name)
	e.buf = append(e.buf, `_bucket{le="+Inf"} `...)
	e.buf = strconv.AppendUint(e.buf, s.count, 10)
	e.buf = append(e.buf, '\n')
	e.appendName(name)
	e.buf = append(e.buf, "_sum "...)
	e.buf = strconv.AppendFloat(e.buf, float64(s.sum)/1e9, 'g', -1, 64)
	e.buf = append(e.buf, '\n')
	e.appendName(name)
	e.buf = append(e.buf, "_count "...)
	e.buf = strconv.AppendUint(e.buf, s.count, 10)
	e.buf = append(e.buf, '\n')
}
