// Package metrics implements the measurement primitives Pingmesh agents and
// the analysis pipeline share: exponential-bucket latency histograms with
// percentile estimation, counters, gauges, and a registry whose metrics
// feed the /metrics exposition and the PMT1 telemetry plane (the paper's
// Perfcounter Aggregator, internal/telemetry).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Latency histograms must span everything Pingmesh observes: sub-100µs
// intra-pod RTTs up to the 9s SYN-retransmit signature and failed-probe
// timeouts around 21s. Buckets grow geometrically so relative error stays
// bounded (~growth-1) across five orders of magnitude.
const (
	histMin    = time.Microsecond
	histMax    = 120 * time.Second
	histGrowth = 1.05
)

var (
	latencyBounds = makeBounds(histMin, histMax, histGrowth)
	latencyIndex  = makeBucketIndex(latencyBounds)
)

func makeBounds(min, max time.Duration, growth float64) []int64 {
	var bounds []int64
	b := float64(min)
	for time.Duration(b) < max {
		bounds = append(bounds, int64(b))
		b *= growth
	}
	bounds = append(bounds, int64(max))
	return bounds
}

// Observe sits on the fleet-simulation and ingest hot paths (hundreds of
// millions of records per analysis window), so bucketing must be O(1)
// rather than a binary search per observation. bucketIndex maps a value
// to its bucket through a precomputed exponent table: the key combines
// the value's bit length with its top mantBits mantissa bits, so one
// table cell spans a value ratio of at most (2^mantBits+1)/2^mantBits =
// 33/32 ≈ 1.031 — finer than the 1.05 bucket growth, leaving at most one
// geometric boundary per cell (two near the top, where makeBounds appends
// the exact histMax cap) to resolve with a comparison or two.
const (
	mantBits = 5
	mantMask = 1<<mantBits - 1
)

// bucketIndex holds, per (bit length, mantissa) key, the bucket index of
// the smallest value mapping to that key. The true index for any value
// is then reached by advancing past at most two bounds.
type bucketIndex struct {
	idx [64 << mantBits]int32
}

// key returns the table cell for a non-negative value.
func (bucketIndex) key(u uint64) int {
	e := bits.Len64(u)
	if e == 0 {
		return 0
	}
	e--
	var m uint64
	if e >= mantBits {
		m = (u >> (uint(e) - mantBits)) & mantMask
	} else {
		m = (u << (mantBits - uint(e))) & mantMask
	}
	return e<<mantBits | int(m)
}

func makeBucketIndex(bounds []int64) *bucketIndex {
	t := &bucketIndex{}
	for key := range t.idx {
		e, m := key>>mantBits, uint64(key&mantMask)
		// Smallest value in the cell: leading one at bit e, mantissa m,
		// zeros below (the inverse of key()). Cells for bit lengths a
		// non-negative int64 cannot produce get a conservative entry;
		// find()'s fix-up loop never reads past what it needs.
		var umin uint64
		if e >= mantBits {
			umin = 1<<uint(e) | m<<(uint(e)-mantBits)
		} else {
			umin = 1<<uint(e) | m>>(mantBits-uint(e))
		}
		i := 0
		for i < len(bounds) && umin <= math.MaxInt64 && bounds[i] < int64(umin) {
			i++
		}
		t.idx[key] = int32(i)
	}
	return t
}

// find returns the smallest i with bounds[i] >= ns (sort.Search
// semantics), in constant time.
func (t *bucketIndex) find(bounds []int64, ns int64) int {
	i := int(t.idx[t.key(uint64(ns))])
	for i < len(bounds) && bounds[i] < ns {
		i++
	}
	return i
}

// Histogram records duration observations in the geometric buckets of the
// shared latency layout and answers percentile queries with bounded relative
// error. It is the only latency histogram in the system and owns its form
// (see sketch.go): sorted packed runs while it holds few distinct buckets,
// one count per bucket past that. Every method reads and writes the same in
// either form. The zero value is NOT ready to use; call NewLatencyHistogram.
// Histogram is not safe for concurrent use; callers that share one across
// goroutines must lock.
type Histogram struct {
	buckets []uint64 // packed runs (len <= maxRuns) or dense counts (len LatencyBucketCount)
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// NewLatencyHistogram returns a histogram spanning 1µs–120s, suitable for
// every RTT Pingmesh can measure including SYN-retransmit inflated ones.
func NewLatencyHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.add(latencyIndex.find(latencyBounds, ns), 1)
	h.sum += ns
	if ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the mean observation, or 0 if the histogram is empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Min returns the smallest observation, or 0 if the histogram is empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest observation, or 0 if the histogram is empty.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Percentile returns an estimate of the q-quantile (q in [0,1]) by linear
// interpolation inside the containing bucket. Results are clamped to the
// observed [Min, Max] range. An empty histogram returns 0.
func (h *Histogram) Percentile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	var out [1]time.Duration
	h.quantiles([]float64{q}, out[:])
	return out[0]
}

// quantiles sets out[k] to the estimate of the qs[k]-quantile in one pass
// over the non-empty buckets, however many are asked for; qs must ascend
// within (0,1) and h hold an observation.
func (h *Histogram) quantiles(qs []float64, out []time.Duration) {
	k := 0
	var cum float64
	it := h.Buckets()
	for b, ok := it.Next(); ok && k < len(qs); b, ok = it.Next() {
		next := cum + float64(b.Count)
		for ; k < len(qs) && next >= qs[k]*float64(h.count); k++ {
			lo, hi := h.bucketRange(b.Index)
			frac := (qs[k]*float64(h.count) - cum) / float64(b.Count)
			v := lo + int64(frac*float64(hi-lo))
			out[k] = h.clamp(time.Duration(v))
		}
		cum = next
	}
	for ; k < len(qs); k++ {
		out[k] = h.Max()
	}
}

func (h *Histogram) bucketRange(i int) (lo, hi int64) {
	switch {
	case i == 0:
		return 0, latencyBounds[0]
	case i >= len(latencyBounds):
		return latencyBounds[len(latencyBounds)-1], h.max
	default:
		return latencyBounds[i-1], latencyBounds[i]
	}
}

func (h *Histogram) clamp(d time.Duration) time.Duration {
	if d < h.Min() {
		return h.Min()
	}
	if d > h.Max() {
		return h.Max()
	}
	return d
}

// Merge folds other into h: an exact integer sum bucket by bucket, so merges
// in any order leave identical histograms.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if other.dense() {
		// Dense counts may not fit a run's count field: add them one by one.
		for i, c := range other.buckets {
			if c != 0 {
				h.add(i, c)
			}
		}
	} else {
		h.addRuns(other.buckets)
	}
	h.AddTallies(other.sum, other.min, other.max)
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return &c
}

// CopyInto overwrites dst with h's contents, allocating only when dst's
// storage is smaller than what h holds.
func (h *Histogram) CopyInto(dst *Histogram) {
	buckets := append(dst.buckets[:0], h.buckets...)
	*dst = *h
	dst.buckets = buckets
}

// Reset discards all observations and keeps the storage.
func (h *Histogram) Reset() {
	h.buckets = h.buckets[:0]
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

// Summary is a compact percentile snapshot of a histogram: the network SLA
// metrics Pingmesh tracks (§4 of the paper) plus tail percentiles used by
// Figure 4(b).
type Summary struct {
	Count uint64
	// Sum is the total of all observations; Sum/Count gives the mean
	// without bucket math, and successive sums give rates.
	Sum   time.Duration
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	P9999 time.Duration
	Max   time.Duration
}

// Summarize computes a Summary from h.
func (h *Histogram) Summarize() Summary {
	if h.count == 0 {
		return Summary{}
	}
	var p [5]time.Duration
	h.quantiles([]float64{0.50, 0.90, 0.99, 0.999, 0.9999}, p[:])
	return Summary{
		Count: h.count,
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   p[0],
		P90:   p[1],
		P99:   p[2],
		P999:  p[3],
		P9999: p[4],
		Max:   h.Max(),
	}
}

// String renders the summary in a compact human-readable form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d sum=%v mean=%v p50=%v p99=%v p99.9=%v p99.99=%v max=%v",
		s.Count, s.Sum, s.Mean, s.P50, s.P99, s.P999, s.P9999, s.Max)
}

// CDF returns (value, cumulative-fraction) points for plotting the latency
// distribution, one point per non-empty bucket.
func (h *Histogram) CDF() []CDFPoint {
	if h.count == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	it := h.Buckets()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		cum += b.Count
		_, hi := h.bucketRange(b.Index)
		pts = append(pts, CDFPoint{
			Value:    h.clamp(time.Duration(hi)),
			Fraction: float64(cum) / float64(h.count),
		})
	}
	return pts
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}
