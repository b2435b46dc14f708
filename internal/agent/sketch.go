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
// (dst, dstPort, class, proto, qos, payloadLen) peer within one window; it is
// cut once, by the upload step AppendUpload, when the grid has passed it.
//
// Windows are those of probe.WindowIndex, the one grid agents and analysis
// share: a sketch therefore never straddles an analysis window boundary,
// which is what lets the ingest side attribute a whole sketch to the window
// containing its MinStart.
//
// Open sketches live in slots, in the order their first probe arrived. A
// probe stream visits its peers in runs (the simulated fleet) or in a
// repeating grid order (the agent's Schedule), so a record's slot is
// almost always the one the previous record matched or the one after it:
// Observe compares against those two and only on a miss builds a key and
// consults the index map. CutBefore hands sketches out in slot order, so an
// upload's bytes are a function of the probe stream alone.
//
// A SketchAccumulator is not safe for concurrent use; the Agent guards it
// with its buffer mutex. Slots are reused in place and histograms recycled
// through a freelist (Release), so accumulation — window rolls included —
// stops allocating once the peer set has been seen.
type SketchAccumulator struct {
	src    netip.Addr
	window time.Duration
	slots  []sketchSlot      // open sketches, first-seen order
	last   int               // the slot the previous record matched
	index  map[sketchKey]int // slot of every open sketch: the miss path
	free   []*metrics.Histogram
	cut    []probe.PeerSketch // AppendUpload's scratch
}

// sketchSlot is one open sketch, kept small — the slots are what an
// accumulator holds on to between windows: the identity a hit compares, the
// window's start and the probes' time range in Unix nanoseconds (a hit skips
// the division), and the histograms.
type sketchSlot struct {
	sketchID
	start        int64
	minNS, maxNS int64
	rtt, payload *metrics.Histogram
}

// sketchID is the identity every record of a sketch shares, as wide as the
// wire has it: class, proto and qos are a byte each there (AppendBinaryBatch),
// packed here with the port. No field leaves padding, so as part of a map key
// it is hashed as one run of memory, not field by field.
type sketchID struct {
	dst        netip.Addr
	payloadLen int
	meta       uint64 // dstPort<<24 | class<<16 | proto<<8 | qos
}

func idOf(r *probe.Record) sketchID {
	return sketchID{r.Dst, r.PayloadLen,
		uint64(r.DstPort)<<24 | uint64(uint8(r.Class))<<16 | uint64(uint8(r.Proto))<<8 | uint64(uint8(r.QoS))}
}

// sketchKey is the aggregation identity plus the window index, so records
// landing after a window closes (but before it is cut) open a fresh sketch.
type sketchKey struct {
	sketchID
	win int64
}

// NewSketchAccumulator returns an empty accumulator for probes originating
// from src, cutting sketches on the grid of the given window length.
func NewSketchAccumulator(src netip.Addr, window time.Duration) *SketchAccumulator {
	return &SketchAccumulator{src: src, window: window, index: make(map[sketchKey]int)}
}

// WindowIndex returns the grid index of t's window (probe.WindowIndex).
func (s *SketchAccumulator) WindowIndex(t time.Time) int64 {
	return probe.WindowIndex(t, s.window)
}

// holds reports whether a record of identity id starting at Unix nanosecond
// ns belongs to slot i.
func (s *SketchAccumulator) holds(i int, id sketchID, ns int64) bool {
	if i >= len(s.slots) {
		return false
	}
	sl := &s.slots[i]
	return uint64(ns-sl.start) < uint64(s.window) && sl.meta == id.meta && sl.dst == id.dst && sl.payloadLen == id.payloadLen
}

// Observe folds one record into its peer sketch. The caller applies the
// anomaly policy first: what ShipsRaw claims, and traced probes, ship raw.
func (s *SketchAccumulator) Observe(r *probe.Record) {
	id, ns := idOf(r), r.Start.UnixNano()
	i := s.last
	if !s.holds(i, id, ns) {
		if i++; !s.holds(i, id, ns) {
			i = s.slotFor(r, id, ns)
		}
		s.last = i
	}
	sl := &s.slots[i]
	sl.rtt.Observe(r.RTT)
	if r.PayloadRTT > 0 {
		if sl.payload == nil {
			sl.payload = s.newHist()
		}
		sl.payload.Observe(r.PayloadRTT)
	}
	sl.minNS, sl.maxNS = min(sl.minNS, ns), max(sl.maxNS, ns)
}

// slotFor is Observe's miss path: the slot of the (peer, window) by the index
// map, opened if this is its first probe.
func (s *SketchAccumulator) slotFor(r *probe.Record, id sketchID, ns int64) int {
	win := s.WindowIndex(r.Start)
	k := sketchKey{id, win}
	if i, ok := s.index[k]; ok {
		return i
	}
	s.slots = append(s.slots, sketchSlot{sketchID: id, start: win * int64(s.window), minNS: ns, maxNS: ns, rtt: s.newHist()})
	s.index[k] = len(s.slots) - 1
	return len(s.slots) - 1
}

// CutBefore removes every sketch whose window index is below win and
// appends them to dst (reusable across flushes) in first-seen order. The
// agent cuts completed windows each flush: open windows keep accumulating
// until the grid advances past them, so each (peer, window) uploads exactly
// one sketch.
func (s *SketchAccumulator) CutBefore(win int64, dst []probe.PeerSketch) []probe.PeerSketch {
	n := 0
	for i := range s.slots {
		sl := &s.slots[i]
		k := sketchKey{sl.sketchID, sl.start / int64(s.window)}
		if k.win < win {
			dst = append(dst, probe.PeerSketch{
				Src: s.src, Dst: sl.dst, DstPort: uint16(sl.meta >> 24), Class: probe.Class(uint8(sl.meta >> 16)),
				Proto: probe.Proto(uint8(sl.meta >> 8)), QoS: probe.QoS(uint8(sl.meta)), PayloadLen: sl.payloadLen,
				MinStart: time.Unix(0, sl.minNS).UTC(), MaxStart: time.Unix(0, sl.maxNS).UTC(),
				RTT: sl.rtt, Payload: sl.payload,
			})
			delete(s.index, k)
			continue
		}
		if n != i {
			s.index[k] = n
			s.slots[n] = *sl
		}
		n++
	}
	if n != len(s.slots) {
		s.slots, s.last = s.slots[:n], 0
	}
	return dst
}

// AppendUpload is the one upload step, and reads no clock: it cuts the
// sketches of the windows before cut, appends them and raw to dst as one PMB1
// batch (dst is untouched if both are empty) and releases their histograms.
// It returns dst, the sketch count and how many probes they summarize.
func (s *SketchAccumulator) AppendUpload(dst []byte, raw []probe.Record, cut int64) (batch []byte, sketches int, sketched int64) {
	s.cut = s.CutBefore(cut, s.cut[:0])
	if len(raw) == 0 && len(s.cut) == 0 {
		return dst, 0, 0
	}
	for i := range s.cut {
		sketched += int64(s.cut[i].RTT.Count())
	}
	dst = probe.AppendBinaryBatch(dst, raw, s.cut)
	s.Release(s.cut)
	return dst, len(s.cut), sketched
}

// Release returns the histograms of cut sketches to the freelist after
// their batch has been encoded (or discarded), and zeroes the entries so
// the backing slice can be reused without retaining Addr/time values. Last
// sketch first: the next window opens its sketches in much the same order, so
// each pops the histogram its peer filled last, grown to that peer's buckets.
func (s *SketchAccumulator) Release(sks []probe.PeerSketch) {
	for i := len(sks) - 1; i >= 0; i-- {
		if h := sks[i].Payload; h != nil {
			h.Reset()
			s.free = append(s.free, h)
		}
		if h := sks[i].RTT; h != nil {
			h.Reset()
			s.free = append(s.free, h)
		}
		sks[i] = probe.PeerSketch{}
	}
}

func (s *SketchAccumulator) newHist() *metrics.Histogram {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	return metrics.NewLatencyHistogram()
}
