package metrics

import (
	"fmt"
	"math"
	"time"
)

// Sketch view of Histogram.
//
// Every latency histogram in the system shares one exponent-table bucket
// layout (1µs–120s, geometric growth LatencyBucketGrowth). That makes a
// histogram a mergeable sketch in the DDSketch sense: two histograms merge
// by exact integer bucket addition (Merge), and a histogram can be shipped
// on the wire as its sparse (bucket index, count) runs plus the exact
// sum/min/max tallies (runs.go), then folded into any other latency
// histogram — no per-observation replay.
//
// Error-bound contract: a value placed in bucket i is somewhere in
// [lo, hi) = LatencyBucketRange(i) with hi/lo <= LatencyBucketGrowth, so
// any percentile read from bucket counts alone is within a factor of
// LatencyBucketGrowth of the true value — a relative error of at most
// LatencyBucketGrowth-1 (~5%), independent of how many sketches were
// merged. Because agents and the analysis pipeline use the *same* bucket
// layout, shipping bucket counts instead of raw records loses nothing the
// analysis side would have kept: the folded histogram is bucket-for-bucket
// identical to observing every raw value directly.
//
// In-memory form: a histogram keeps its non-empty buckets as sorted runs,
// each packing the bucket index into the top runIndexBits of a uint64 and
// the count into the rest, so the runs sort by bucket as plain integers and
// cost 8 bytes each. A per-peer sketch or a pod-pair aggregate sees a few
// dozen distinct buckets; the agent holds thousands of the former and the
// fold tier thousands of the latter, against 3 KB each for one count per
// bucket. A histogram that would hold more than maxRuns distinct buckets, or
// a count past runCountBits, switches itself to the dense counts array, where
// an observation is an index instead of a search. The form is a function of
// the content alone — nothing demotes, and Reset starts over — so merges in
// any order leave reflect.DeepEqual histograms.
const (
	runIndexBits = 9 // 382 buckets
	runCountBits = 64 - runIndexBits
	runCountMask = 1<<runCountBits - 1

	// maxRuns is the fill threshold; at it the runs take 1 KB.
	maxRuns = 128
)

// LatencyBucketGrowth is the geometric growth factor between consecutive
// latency-histogram bucket bounds. The relative error of any percentile
// estimated from bucket counts is at most LatencyBucketGrowth-1.
const LatencyBucketGrowth = histGrowth

// LatencyBucketCount returns the number of buckets in the shared latency
// layout, including the final overflow bucket. All histograms from
// NewLatencyHistogram have exactly this many counts.
func LatencyBucketCount() int { return len(latencyBounds) + 1 }

// LatencyBucketOf returns the bucket index a duration falls into under the
// shared latency layout: the same bucket Observe would increment. Negative
// durations clamp to 0, matching Observe.
func LatencyBucketOf(d time.Duration) int {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	return latencyIndex.find(latencyBounds, ns)
}

// LatencyBucketRange returns the value range [lo, hi) covered by bucket i
// of the shared latency layout. The overflow bucket's hi is the maximum
// representable duration. It panics if i is out of range.
func LatencyBucketRange(i int) (lo, hi time.Duration) {
	switch {
	case i < 0 || i > len(latencyBounds):
		panic(fmt.Sprintf("metrics: bucket %d out of range [0,%d]", i, len(latencyBounds)))
	case i == 0:
		return 0, time.Duration(latencyBounds[0])
	case i == len(latencyBounds):
		return time.Duration(latencyBounds[len(latencyBounds)-1]), math.MaxInt64
	default:
		return time.Duration(latencyBounds[i-1]), time.Duration(latencyBounds[i])
	}
}

// Bucket is one non-empty histogram bucket: its index in the shared layout
// and its observation count.
type Bucket struct {
	Index int
	Count uint64
}

// Buckets returns an iterator over h's non-empty buckets in ascending
// index order. The iterator is a value type and allocates nothing; it
// reads h's live counts, so h must not be modified during iteration.
func (h *Histogram) Buckets() BucketIter {
	return BucketIter{buckets: h.buckets, dense: h.dense()}
}

// BucketIter iterates non-empty buckets in strictly ascending index order:
// a Histogram's in either form, or a decoded Runs'. The zero value is an
// exhausted iterator.
type BucketIter struct {
	buckets []uint64 // packed runs, or dense counts when dense
	dense   bool
	i       int
}

// Next returns the next non-empty bucket, or ok=false when exhausted.
func (it *BucketIter) Next() (b Bucket, ok bool) {
	for it.i < len(it.buckets) {
		i, w := it.i, it.buckets[it.i]
		it.i++
		if !it.dense {
			return Bucket{Index: int(w >> runCountBits), Count: w & runCountMask}, true
		}
		if w != 0 {
			return Bucket{Index: i, Count: w}, true
		}
	}
	return Bucket{}, false
}

// AddBucket folds n observations directly into bucket i, the decode-side
// inverse of Buckets. It updates the bucket count and the total count but
// not sum/min/max — callers folding a sketch follow up with one AddTallies
// carrying the exact tallies. It panics if i is outside the layout.
func (h *Histogram) AddBucket(i int, n uint64) {
	if i < 0 || i > len(latencyBounds) {
		panic(fmt.Sprintf("metrics: bucket %d out of range [0,%d]", i, len(latencyBounds)))
	}
	if n > 0 { // a run is a non-empty bucket
		h.add(i, n)
	}
}

// AddTallies folds the exact sum/min/max tallies of a sketch into h,
// completing a sequence of AddBucket calls. Call it only for a sketch with
// at least one observation (min/max of an empty sketch are meaningless).
func (h *Histogram) AddTallies(sum, min, max int64) {
	h.sum += sum
	if min < h.min {
		h.min = min
	}
	if max > h.max {
		h.max = max
	}
}

func (h *Histogram) dense() bool { return len(h.buckets) > maxRuns }

// add folds n observations into bucket i.
func (h *Histogram) add(i int, n uint64) {
	h.count += n
	if h.dense() {
		h.buckets[i] += n
		return
	}
	key := uint64(i) << runCountBits
	at, end := 0, len(h.buckets)
	for at < end { // the first run at or past bucket i
		if m := int(uint(at+end) >> 1); h.buckets[m] < key {
			at = m + 1
		} else {
			end = m
		}
	}
	h.addRun(at, i, n)
}

// addRun folds n observations into bucket i, whose run is — or would be
// inserted — at position at. When the runs cannot take them (one more
// distinct bucket than maxRuns, or a count past runCountBits) it switches
// to the dense counts array first.
func (h *Histogram) addRun(at, i int, n uint64) {
	if at < len(h.buckets) && h.buckets[at]>>runCountBits == uint64(i) {
		if n <= runCountMask-h.buckets[at]&runCountMask {
			h.buckets[at] += n
			return
		}
	} else if len(h.buckets) < maxRuns && n <= runCountMask {
		h.buckets = append(h.buckets, 0)
		copy(h.buckets[at+1:], h.buckets[at:])
		h.buckets[at] = uint64(i)<<runCountBits | n
		return
	}
	runs := h.buckets
	h.buckets = make([]uint64, len(latencyBounds)+1)
	for _, run := range runs {
		h.buckets[run>>runCountBits] = run & runCountMask
	}
	h.buckets[i] += n
}

// addRuns merge-joins packed runs, strictly ascending, into h: the one fold
// behind Merge and Runs.AddTo. A run whose bucket h already holds is added
// in place; only a new bucket goes through addRun, the one step that can
// switch h to the dense form.
func (h *Histogram) addRuns(runs []uint64) {
	if h.dense() {
		h.addDense(runs)
		return
	}
	at := 0
	for k, run := range runs {
		i, n := run>>runCountBits, run&runCountMask
		for at < len(h.buckets) && h.buckets[at]>>runCountBits < i {
			at++
		}
		h.count += n
		if at < len(h.buckets) && h.buckets[at]>>runCountBits == i && n <= runCountMask-h.buckets[at]&runCountMask {
			h.buckets[at] += n
			continue
		}
		h.addRun(at, int(i), n)
		if h.dense() {
			h.addDense(runs[k+1:])
			return
		}
	}
}

// addDense adds packed runs to h's dense counts.
func (h *Histogram) addDense(runs []uint64) {
	for _, run := range runs {
		n := run & runCountMask
		h.buckets[run>>runCountBits] += n
		h.count += n
	}
}
