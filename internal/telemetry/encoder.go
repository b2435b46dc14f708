package telemetry

import (
	"pingmesh/internal/metrics"
)

// Encoder turns a metrics.Registry into PMT1 delta reports. It keeps two
// snapshots of every metric: the *base* (values as of the last report the
// collector acknowledged) and the *pending* (values as of the last report
// built). Encode computes deltas against the base, so a report that is
// lost on the wire is superseded — not lost — by the next one, which
// re-carries the same activity. Ack promotes pending to base with a pair
// of pointer swaps; Rebase (after a collector resync) re-anchors the base
// at the current registry values so the next report is self-contained.
//
// One Encoder serves one registry from one goroutine (the Shipper's). All
// buffers, maps, and scratch histograms are reused, so a steady-state
// Encode performs no allocations (CI tier 3 guards this). Histograms in
// the registry must only accumulate — an Encoder cannot express a reset.
type Encoder struct {
	src, scope string
	reg        *metrics.Registry
	b          ReportBuilder

	seq   uint64 // seq of the last built report
	acked uint64 // last seq the collector acknowledged

	cbase, cpend map[string]int64
	gbase, gpend map[string]int64
	hbase, hpend map[string]*metrics.Histogram
	scratch      *metrics.Histogram // SnapshotInto target

	rebasing bool
	nowNS    int64
}

// NewEncoder returns an encoder for reg. src identifies the agent on the
// wire; scope is its DC/podset/pod position (e.g. "d0.s1.p2"; "" for
// unscoped).
func NewEncoder(src, scope string, reg *metrics.Registry) *Encoder {
	return &Encoder{
		src: src, scope: scope, reg: reg,
		cbase: map[string]int64{}, cpend: map[string]int64{},
		gbase: map[string]int64{}, gpend: map[string]int64{},
		hbase: map[string]*metrics.Histogram{}, hpend: map[string]*metrics.Histogram{},
	}
}

// Encode builds the next report: every metric's delta against the acked
// base, sequence-numbered one past the previous report. The returned bytes
// are owned by the encoder and valid until the next Encode; ship them (and
// any retries of them) before building another report.
func (e *Encoder) Encode(nowNS int64) (data []byte, seq uint64) {
	e.seq++
	e.b.Begin(e.src, e.scope, e.seq, e.acked, nowNS)
	e.rebasing = false
	e.reg.Visit(e)
	return e.b.Finish(), e.seq
}

// Ack records that the collector applied report seq. Deltas in the next
// report are computed against it. Acks for anything but the last built
// report are ignored (the shipper is synchronous: one report in flight).
func (e *Encoder) Ack(seq uint64) {
	if seq != e.seq || seq == e.acked {
		return
	}
	e.acked = seq
	e.cbase, e.cpend = e.cpend, e.cbase
	e.gbase, e.gpend = e.gpend, e.gbase
	e.hbase, e.hpend = e.hpend, e.hbase
}

// Rebase re-anchors the encoder after a collector resync (409): the base
// becomes the registry's current values and the next report goes out
// self-contained (wire base 0). Activity between the last acked report and
// the rebase is dropped — a resync never double-counts on the collector;
// it under-counts by at most the unacked window.
func (e *Encoder) Rebase() {
	e.acked = 0
	e.rebasing = true
	e.reg.Visit(e)
	e.rebasing = false
}

// VisitCounter implements metrics.Visitor.
func (e *Encoder) VisitCounter(name string, c *metrics.Counter) {
	v := c.Value()
	if e.rebasing {
		e.cbase[name] = v
		return
	}
	e.cpend[name] = v
	if d := v - e.cbase[name]; d > 0 {
		e.b.Counter(name, uint64(d))
	}
}

// VisitGauge implements metrics.Visitor.
func (e *Encoder) VisitGauge(name string, g *metrics.Gauge) {
	v := g.Value()
	if e.rebasing {
		e.gbase[name] = v
		return
	}
	e.gpend[name] = v
	if d := v - e.gbase[name]; d != 0 {
		e.b.Gauge(name, d)
	}
}

// VisitHistogram implements metrics.Visitor: new observations since base
// as sparse bucket-count deltas (bucket counts only grow, so the base's
// support is a subset of the current and one merge-join pass yields the
// difference), the sum as a delta, min/max as cumulative values.
func (e *Encoder) VisitHistogram(name string, h *metrics.LockedHistogram) {
	if e.rebasing {
		bh := e.hbase[name]
		if bh == nil {
			e.hbase[name] = h.SnapshotInto(nil)
		} else {
			h.SnapshotInto(bh)
		}
		return
	}
	e.scratch = h.SnapshotInto(e.scratch)
	cur := e.scratch
	pend := e.hpend[name]
	if pend == nil {
		pend = metrics.NewLatencyHistogram()
		e.hpend[name] = pend
	}
	cur.CopyInto(pend)

	bh := e.hbase[name]
	var baseCount uint64
	var baseSum int64
	if bh != nil {
		baseCount = bh.Count()
		baseSum = int64(bh.Sum())
	}
	if cur.Count() == baseCount {
		return // no new observations; absent = zero delta
	}
	e.b.BeginHist(name, int64(cur.Sum())-baseSum, int64(cur.Min()), int64(cur.Max()))
	it := cur.Buckets()
	var bit metrics.BucketIter
	if bh != nil {
		bit = bh.Buckets()
	}
	bb, bok := bit.Next()
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		var bc uint64
		if bok && bb.Index == b.Index {
			bc = bb.Count
			bb, bok = bit.Next()
		}
		if b.Count > bc {
			e.b.Bucket(b.Index, b.Count-bc)
		}
	}
	e.b.EndHist()
}
