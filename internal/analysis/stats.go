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
// the tallies are inline and each histogram stays nil until it has something
// to hold — the connect-RTT one until the first successful probe, the payload
// one (which every job filtering PayloadLen == 0 never touches) until the
// first payload observation. metrics.Histogram keeps itself small while it
// holds few distinct buckets.
//
// The tallies-only form (NewTallies) keeps no histogram at all: for jobs
// whose consumer reads counts and rates, never a percentile.
type LatencyStats struct {
	total   uint64
	success uint64
	rtt3s   uint64 // probes with the one-drop signature
	rtt9s   uint64 // probes with the correlated-drop signature

	rtt         *metrics.Histogram // successful connect RTTs (incl. retransmit-inflated)
	payload     *metrics.Histogram // successful payload echo RTTs
	talliesOnly bool               // both histograms stay nil
}

// NewLatencyStats returns an empty aggregator.
func NewLatencyStats() *LatencyStats { return &LatencyStats{} }

// NewTallies returns an empty tallies-only aggregator: Total, Success,
// Failed, FailureRate and DropRate read exactly as a full aggregate's would,
// and the percentile, summary and CDF accessors read as empty. Merging one
// with a full aggregate, in either direction, leaves a tallies-only one — the
// histogram would no longer cover every probe counted.
func NewTallies() *LatencyStats { return &LatencyStats{talliesOnly: true} }

// hist returns *h, allocating it on first use.
func hist(h **metrics.Histogram) *metrics.Histogram {
	if *h == nil {
		*h = metrics.NewLatencyHistogram()
	}
	return *h
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
	hist(&s.rtt).Observe(r.RTT)
	if r.PayloadRTT > 0 {
		hist(&s.payload).Observe(r.PayloadRTT)
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
	sk.RTT.AddTo(hist(&s.rtt))
	if sk.Payload.Count > 0 {
		sk.Payload.AddTo(hist(&s.payload))
	}
}

// Clone returns a deep copy sharing no state with s: merging into the
// clone leaves s untouched, so live partial aggregates can keep folding
// while a cycle combines snapshots of them.
func (s *LatencyStats) Clone() *LatencyStats {
	c := *s
	if s.rtt != nil {
		c.rtt = s.rtt.Clone()
	}
	if s.payload != nil {
		c.payload = s.payload.Clone()
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
		s.talliesOnly, s.rtt, s.payload = true, nil, nil
		return
	}
	if o.rtt != nil {
		hist(&s.rtt).Merge(o.rtt)
	}
	if o.payload != nil {
		hist(&s.payload).Merge(o.payload)
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

// noHist is what the read side sees of a histogram never allocated.
var noHist = metrics.NewLatencyHistogram()

func read(h *metrics.Histogram) *metrics.Histogram {
	if h == nil {
		return noHist
	}
	return h
}

// Percentile returns the q-quantile of successful connect RTTs.
func (s *LatencyStats) Percentile(q float64) time.Duration { return read(s.rtt).Percentile(q) }

// Summary returns the percentile summary of successful connect RTTs.
func (s *LatencyStats) Summary() metrics.Summary { return read(s.rtt).Summarize() }

// PayloadSummary returns the percentile summary of payload echo RTTs.
func (s *LatencyStats) PayloadSummary() metrics.Summary { return read(s.payload).Summarize() }

// CDF returns the empirical CDF of successful connect RTTs.
func (s *LatencyStats) CDF() []metrics.CDFPoint { return read(s.rtt).CDF() }

// PayloadCDF returns the empirical CDF of payload RTTs.
func (s *LatencyStats) PayloadCDF() []metrics.CDFPoint { return read(s.payload).CDF() }
