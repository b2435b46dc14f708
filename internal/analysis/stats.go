// Package analysis implements the latency data analysis of the Pingmesh
// DSA pipeline (§3.5, §4): latency distributions and percentile summaries,
// the SYN-retransmit drop-rate heuristic, network SLA computation at
// server/pod/podset/DC/service scopes, and threshold-based SLA violation
// alerting.
package analysis

import (
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
)

// The TCP connect RTT embeds SYN retransmission timeouts: ~3s means the
// first SYN (or its SYN-ACK) was dropped once, ~9s means two correlated
// drops (§4.2). These bands classify a measured RTT.
const (
	rtt3sLow  = 2500 * time.Millisecond
	rtt3sHigh = 6 * time.Second
	rtt9sHigh = 15 * time.Second
)

// DropSignature returns 1 if the RTT carries the one-retransmit (~3s)
// signature, 2 for the two-retransmit (~9s) signature, 0 otherwise.
func DropSignature(rtt time.Duration) int {
	switch {
	case rtt >= rtt3sLow && rtt < rtt3sHigh:
		return 1
	case rtt >= rtt3sHigh && rtt < rtt9sHigh:
		return 2
	}
	return 0
}

// LatencyStats aggregates probe records: the standard Pingmesh aggregator
// used by every SCOPE job. It is not safe for concurrent use; SCOPE
// workers each own one and Merge.
//
// Resident fold state is thousands of these, so the aggregate is compact:
// the tallies are inline and the histograms sit behind a pointer that stays
// nil until the first successful probe. The connect-RTT histogram starts as
// sparse runs and is promoted to a dense metrics.Histogram only past a fixed
// fill threshold (see sparseHist); the payload histogram — which every job
// filtering PayloadLen == 0 never touches — is allocated on the first
// payload observation. Every accessor reads the same in either form.
//
// The tallies-only form (NewTallies) keeps no histogram at all: for jobs
// whose consumer reads counts and rates, never a percentile.
type LatencyStats struct {
	total   uint64
	success uint64
	rtt3s   uint64 // probes with the one-drop signature
	rtt9s   uint64 // probes with the correlated-drop signature

	h           *latencyHists // nil until a successful probe; always nil in the tallies-only form
	talliesOnly bool
}

// latencyHists is the histogram half of a LatencyStats.
type latencyHists struct {
	rtt     sparseHist         // successful connect RTTs (incl. retransmit-inflated), until promoted
	dense   *metrics.Histogram // the same once promoted; rtt is then empty
	payload *metrics.Histogram // successful payload echo RTTs
}

// NewLatencyStats returns an empty aggregator.
func NewLatencyStats() *LatencyStats { return &LatencyStats{} }

// NewTallies returns an empty tallies-only aggregator: Total, Success,
// Failed, FailureRate and DropRate read exactly as a full aggregate's would,
// and the percentile, summary and CDF accessors read as empty. Merging one
// with a full aggregate, in either direction, leaves a tallies-only one — the
// histogram would no longer cover every probe counted.
func NewTallies() *LatencyStats { return &LatencyStats{talliesOnly: true} }

func (s *LatencyStats) hists() *latencyHists {
	if s.h == nil {
		s.h = &latencyHists{}
	}
	return s.h
}

// promote switches the RTT histogram to the dense form.
func (h *latencyHists) promote() {
	if h.dense == nil {
		h.dense = metrics.NewLatencyHistogram()
		h.rtt.addTo(h.dense)
		h.rtt = sparseHist{}
	}
}

func (h *latencyHists) payloadHist() *metrics.Histogram {
	if h.payload == nil {
		h.payload = metrics.NewLatencyHistogram()
	}
	return h.payload
}

// Add folds one record in.
func (s *LatencyStats) Add(r *probe.Record) {
	s.total++
	if !r.Success() {
		return
	}
	s.success++
	switch DropSignature(r.RTT) {
	case 1:
		s.rtt3s++
	case 2:
		s.rtt9s++
	}
	if s.talliesOnly {
		return
	}
	h := s.hists()
	if h.dense == nil && !h.rtt.observe(r.RTT) {
		h.promote()
	}
	if h.dense != nil {
		h.dense.Observe(r.RTT)
	}
	if r.PayloadRTT > 0 {
		h.payloadHist().Observe(r.PayloadRTT)
	}
}

// AddSketch folds a decoded per-peer latency sketch in: the wire bucket
// counts land directly in the same histogram buckets Add's Observe would
// have filled, so a sketch is indistinguishable from having added every
// summarized record — no per-record replay, one pass over the non-empty
// buckets.
//
// Sketch-covered probes are by contract successful and non-anomalous: the
// agent ships failures, retransmit-signature RTTs, and over-threshold RTTs
// as raw records (see internal/agent). AddSketch therefore counts all
// summarized probes as successes and leaves the drop-signature tallies to
// the raw records that carry them.
func (s *LatencyStats) AddSketch(sk *probe.Sketch) {
	n := sk.Records()
	s.total += n
	s.success += n
	if s.talliesOnly || n == 0 {
		return
	}
	// Tallies first, then buckets: an add that outgrows the sparse form finds
	// it non-empty (one sketch alone stays far below a run's count limit), so
	// promotion carries the tallies over and the remaining buckets go dense.
	h := s.hists()
	if h.dense == nil {
		h.rtt.tally(h.rtt.count == 0, sk.RTT.Sum, sk.RTT.MinNS, sk.RTT.MaxNS)
	} else {
		h.dense.AddTallies(sk.RTT.Sum, sk.RTT.MinNS, sk.RTT.MaxNS)
	}
	it := sk.RTT.Buckets()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		if h.dense == nil && !h.rtt.add(b.Index, b.Count) {
			h.promote()
		}
		if h.dense != nil {
			h.dense.AddBucket(b.Index, b.Count)
		}
	}
	if sk.Payload.Count > 0 {
		sk.Payload.AddTo(h.payloadHist())
	}
}

// Clone returns a deep copy sharing no state with s: merging into the
// clone leaves s untouched, so live partial aggregates can keep folding
// while a cycle combines snapshots of them.
func (s *LatencyStats) Clone() *LatencyStats {
	c := *s
	if s.h != nil {
		c.h = &latencyHists{rtt: s.h.rtt.clone()}
		if s.h.dense != nil {
			c.h.dense = s.h.dense.Clone()
		}
		if s.h.payload != nil {
			c.h.payload = s.h.payload.Clone()
		}
	}
	return &c
}

// Merge folds another aggregator in.
func (s *LatencyStats) Merge(o *LatencyStats) {
	s.total += o.total
	s.success += o.success
	s.rtt3s += o.rtt3s
	s.rtt9s += o.rtt9s
	if s.talliesOnly || o.talliesOnly {
		s.talliesOnly, s.h = true, nil
		return
	}
	if o.h == nil {
		return
	}
	h := s.hists()
	switch {
	case o.h.dense != nil:
		h.promote()
		h.dense.Merge(o.h.dense)
	case h.dense != nil:
		o.h.rtt.addTo(h.dense)
	case !h.rtt.merge(&o.h.rtt):
		h.promote()
		o.h.rtt.addTo(h.dense)
	}
	if o.h.payload != nil {
		h.payloadHist().Merge(o.h.payload)
	}
}

// Total returns the number of records aggregated.
func (s *LatencyStats) Total() uint64 { return s.total }

// Success returns the number of successful probes.
func (s *LatencyStats) Success() uint64 { return s.success }

// Failed returns the number of failed probes.
func (s *LatencyStats) Failed() uint64 { return s.total - s.success }

// FailureRate returns failed/total (reachability, distinct from the packet
// drop rate — failures include down hosts, which the drop heuristic
// deliberately excludes).
func (s *LatencyStats) FailureRate() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.Failed()) / float64(s.total)
}

// DropRate estimates the packet drop rate with the paper's heuristic:
//
//	(probes with 3s RTT + probes with 9s RTT) / total successful probes.
//
// Failed probes are excluded from the denominator because a failed connect
// cannot be distinguished from a dead receiver; a 9s connection counts one
// drop, not two, because successive drops within a connection are strongly
// correlated (§4.2).
func (s *LatencyStats) DropRate() float64 {
	if s.success == 0 {
		return 0
	}
	return float64(s.rtt3s+s.rtt9s) / float64(s.success)
}

// noHists is what the read side sees of an aggregate that holds no
// histograms: empty ones.
var noHists latencyHists

func (s *LatencyStats) read() *latencyHists {
	if s.h == nil {
		return &noHists
	}
	return s.h
}

// Percentile returns the q-quantile of successful connect RTTs.
func (s *LatencyStats) Percentile(q float64) time.Duration {
	h := s.read()
	if h.dense != nil {
		return h.dense.Percentile(q)
	}
	return h.rtt.percentile(q)
}

// Summary returns the percentile summary of successful connect RTTs.
func (s *LatencyStats) Summary() metrics.Summary {
	h := s.read()
	if h.dense != nil {
		return h.dense.Summarize()
	}
	return h.rtt.summarize()
}

// PayloadSummary returns the percentile summary of payload echo RTTs.
func (s *LatencyStats) PayloadSummary() metrics.Summary {
	if h := s.read(); h.payload != nil {
		return h.payload.Summarize()
	}
	return metrics.Summary{}
}

// CDF returns the empirical CDF of successful connect RTTs.
func (s *LatencyStats) CDF() []metrics.CDFPoint {
	h := s.read()
	if h.dense != nil {
		return h.dense.CDF()
	}
	return h.rtt.cdf()
}

// PayloadCDF returns the empirical CDF of payload RTTs.
func (s *LatencyStats) PayloadCDF() []metrics.CDFPoint {
	if h := s.read(); h.payload != nil {
		return h.payload.CDF()
	}
	return nil
}
