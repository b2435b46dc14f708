package agent

import (
	"net/netip"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
)

// slowRTT is the successful-probe RTT at or above which a record ships raw:
// the tail operators drill into keeps per-record identity.
const slowRTT = time.Second

// ShipsRaw is the upload anomaly policy, stated once: a failed probe, one
// whose RTT carries a SYN-retransmit drop signature (~3 s, ~9 s) and one at or
// above a second ship as raw records — the per-record identity that drop
// analysis and hop voting need — and every other probe is summarized in its
// peer's sketch. (The agent also ships the probes of a sampled trace raw.)
func ShipsRaw(r *probe.Record) bool {
	return !r.Success() || r.RTT >= slowRTT || analysis.DropSignature(r.RTT) != 0
}

// SketchAccumulator aggregates the probes ShipsRaw does not claim into
// per-peer latency sketches (probe.PeerSketch), the agent half of the upload
// path. One sketch summarizes every probe to one
// (dst, dstPort, class, proto, qos, payloadLen) peer within one window.
//
// Windows are those of probe.WindowIndex, the one grid agents and analysis
// share: a sketch therefore never straddles an analysis window boundary,
// which is what lets the ingest side attribute a whole sketch to the window
// containing its MinStart.
//
// A SketchAccumulator is not safe for concurrent use; the Agent guards it
// with its buffer mutex. Histograms are recycled through a freelist
// (Release) so steady-state accumulation stops allocating once the peer
// set has been seen.
type SketchAccumulator struct {
	src    netip.Addr
	window time.Duration
	m      map[sketchKey]*probe.PeerSketch
	free   []*metrics.Histogram
}

// sketchKey is the aggregation identity: the fields every record in the
// sketch must share, plus the window index so records landing after a
// window closes (but before it is cut) open a fresh sketch.
type sketchKey struct {
	dst        netip.Addr
	dstPort    uint16
	class      probe.Class
	proto      probe.Proto
	qos        probe.QoS
	payloadLen int
	win        int64
}

// NewSketchAccumulator returns an empty accumulator for probes originating
// from src, cutting sketches on the grid of the given window length.
func NewSketchAccumulator(src netip.Addr, window time.Duration) *SketchAccumulator {
	return &SketchAccumulator{
		src:    src,
		window: window,
		m:      make(map[sketchKey]*probe.PeerSketch),
	}
}

// WindowIndex returns the grid index of t's window (probe.WindowIndex).
func (s *SketchAccumulator) WindowIndex(t time.Time) int64 {
	return probe.WindowIndex(t, s.window)
}

// Observe folds one record into its peer sketch. The caller applies the
// anomaly policy first: what ShipsRaw claims, and traced probes, ship raw.
func (s *SketchAccumulator) Observe(r *probe.Record) {
	k := sketchKey{
		dst:        r.Dst,
		dstPort:    r.DstPort,
		class:      r.Class,
		proto:      r.Proto,
		qos:        r.QoS,
		payloadLen: r.PayloadLen,
		win:        s.WindowIndex(r.Start),
	}
	sk := s.m[k]
	if sk == nil {
		sk = &probe.PeerSketch{
			Src:        s.src,
			Dst:        r.Dst,
			DstPort:    r.DstPort,
			Class:      r.Class,
			Proto:      r.Proto,
			QoS:        r.QoS,
			PayloadLen: r.PayloadLen,
			MinStart:   r.Start,
			MaxStart:   r.Start,
			RTT:        s.newHist(),
		}
		s.m[k] = sk
	}
	sk.RTT.Observe(r.RTT)
	if r.PayloadRTT > 0 {
		if sk.Payload == nil {
			sk.Payload = s.newHist()
		}
		sk.Payload.Observe(r.PayloadRTT)
	}
	if r.Start.Before(sk.MinStart) {
		sk.MinStart = r.Start
	}
	if r.Start.After(sk.MaxStart) {
		sk.MaxStart = r.Start
	}
}

// CutBefore removes every sketch whose window index is below win and
// appends them to dst (reusable across flushes). The agent cuts completed
// windows each flush: open windows keep accumulating until the grid
// advances past them, so each (peer, window) uploads exactly one sketch.
func (s *SketchAccumulator) CutBefore(win int64, dst []probe.PeerSketch) []probe.PeerSketch {
	for k, sk := range s.m {
		if k.win < win {
			dst = append(dst, *sk)
			delete(s.m, k)
		}
	}
	return dst
}

// Release returns the histograms of cut sketches to the freelist after
// their batch has been encoded (or discarded), and zeroes the entries so
// the backing slice can be reused without retaining Addr/time values.
func (s *SketchAccumulator) Release(sks []probe.PeerSketch) {
	for i := range sks {
		if h := sks[i].RTT; h != nil {
			h.Reset()
			s.free = append(s.free, h)
		}
		if h := sks[i].Payload; h != nil {
			h.Reset()
			s.free = append(s.free, h)
		}
		sks[i] = probe.PeerSketch{}
	}
}

// Len returns the number of open (peer, window) sketches.
func (s *SketchAccumulator) Len() int { return len(s.m) }

func (s *SketchAccumulator) newHist() *metrics.Histogram {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	return metrics.NewLatencyHistogram()
}
