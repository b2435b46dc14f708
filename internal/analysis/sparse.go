package analysis

import (
	"time"

	"pingmesh/internal/metrics"
)

// sparseHist is the compact form of a latency histogram on the shared
// bucket layout: the non-empty buckets as sorted runs plus the exact
// count/sum/min/max tallies a metrics.Histogram keeps. A run packs the
// bucket index into the top runIndexBits of a uint64 and the count into the
// rest, so the runs sort by bucket as plain integers and cost 8 bytes each
// against 3 KB for the dense form. A group aggregate — one pod pair, one
// source DC — sees a few dozen distinct buckets; resident fold state is
// thousands of them.
//
// It reads exactly as the dense histogram holding the same observations
// does (percentile, summary and CDF walk the same non-empty buckets in the
// same order with the same arithmetic), which FuzzCompactVsDense pins. The
// zero value is an empty histogram.
type sparseHist struct {
	runs  []uint64
	count uint64
	sum   int64
	min   int64
	max   int64
}

const (
	runIndexBits = 9 // 382 buckets
	runCountBits = 64 - runIndexBits
	runCountMask = 1<<runCountBits - 1

	// sparseMaxRuns is the fill threshold: an aggregate that would hold more
	// distinct buckets is promoted to the dense form, where an observation
	// is an index instead of a search. At the threshold the runs take 1 KB.
	sparseMaxRuns = 128
)

func unpackRun(run uint64) (bucket int, n uint64) {
	return int(run >> runCountBits), run & runCountMask
}

// add folds n observations into bucket. It reports false, changing nothing,
// when the histogram has outgrown the sparse form — one more distinct bucket
// than sparseMaxRuns, or a count past runCountBits — and the caller must
// promote it.
func (h *sparseHist) add(bucket int, n uint64) bool {
	key := uint64(bucket) << runCountBits
	i, end := 0, len(h.runs)
	for i < end { // the first run at or past bucket
		if m := int(uint(i+end) >> 1); h.runs[m] < key {
			i = m + 1
		} else {
			end = m
		}
	}
	if i < len(h.runs) && h.runs[i]>>runCountBits == uint64(bucket) {
		if h.runs[i]&runCountMask+n > runCountMask {
			return false
		}
		h.runs[i] += n
		h.count += n
		return true
	}
	if len(h.runs) == sparseMaxRuns || n > runCountMask {
		return false
	}
	h.runs = append(h.runs, 0)
	copy(h.runs[i+1:], h.runs[i:])
	h.runs[i] = key | n
	h.count += n
	return true
}

// tally folds exact sum/min/max tallies in; empty reports whether the
// histogram held nothing before the observations they describe were added.
func (h *sparseHist) tally(empty bool, sum, min, max int64) {
	h.sum += sum
	if empty || min < h.min {
		h.min = min
	}
	if empty || max > h.max {
		h.max = max
	}
}

// observe records one duration, reporting false (and recording nothing)
// when the caller must promote first.
func (h *sparseHist) observe(d time.Duration) bool {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	empty := h.count == 0
	if !h.add(metrics.LatencyBucketOf(d), 1) {
		return false
	}
	h.tally(empty, ns, ns, ns)
	return true
}

// merge folds o in with one pass over both run lists, reporting false
// (changing nothing) when the union outgrows the sparse form.
func (h *sparseHist) merge(o *sparseHist) bool {
	if o.count == 0 {
		return true
	}
	union := 0
	for i, j := 0, 0; i < len(h.runs) || j < len(o.runs); union++ {
		switch {
		case j == len(o.runs) || i < len(h.runs) && h.runs[i]>>runCountBits < o.runs[j]>>runCountBits:
			i++
		case i == len(h.runs) || o.runs[j]>>runCountBits < h.runs[i]>>runCountBits:
			j++
		default:
			if h.runs[i]&runCountMask+o.runs[j]&runCountMask > runCountMask {
				return false
			}
			i, j = i+1, j+1
		}
	}
	if union > sparseMaxRuns {
		return false
	}
	// Merge from the back, in place: every slot is written after it is read.
	i, j := len(h.runs)-1, len(o.runs)-1
	for len(h.runs) < union {
		h.runs = append(h.runs, 0)
	}
	for k := union - 1; j >= 0; k-- {
		switch {
		case i >= 0 && h.runs[i]>>runCountBits > o.runs[j]>>runCountBits:
			h.runs[k] = h.runs[i]
			i--
		case i >= 0 && h.runs[i]>>runCountBits == o.runs[j]>>runCountBits:
			h.runs[k] = h.runs[i] + o.runs[j]&runCountMask
			i, j = i-1, j-1
		default:
			h.runs[k] = o.runs[j]
			j--
		}
	}
	empty := h.count == 0
	h.count += o.count
	h.tally(empty, o.sum, o.min, o.max)
	return true
}

// addTo folds the histogram into a dense one: promotion, and the merge of a
// sparse aggregate into one already promoted.
func (h *sparseHist) addTo(dst *metrics.Histogram) {
	if h.count == 0 {
		return
	}
	for _, run := range h.runs {
		dst.AddBucket(unpackRun(run))
	}
	dst.AddTallies(h.sum, h.min, h.max)
}

func (h *sparseHist) clone() sparseHist {
	c := *h
	c.runs = append([]uint64(nil), h.runs...)
	return c
}

// The read side mirrors metrics.Histogram's Percentile, Summarize and CDF
// statement for statement, over the runs instead of the counts array.

func (h *sparseHist) bucketRange(i int) (lo, hi int64) {
	l, u := metrics.LatencyBucketRange(i)
	if i == metrics.LatencyBucketCount()-1 {
		return int64(l), h.max
	}
	return int64(l), int64(u)
}

func (h *sparseHist) clamp(d time.Duration) time.Duration {
	if d < time.Duration(h.min) {
		return time.Duration(h.min)
	}
	if d > time.Duration(h.max) {
		return time.Duration(h.max)
	}
	return d
}

func (h *sparseHist) percentile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := q * float64(h.count)
	var cum float64
	for _, run := range h.runs {
		i, c := unpackRun(run)
		next := cum + float64(c)
		if next >= rank {
			lo, hi := h.bucketRange(i)
			frac := (rank - cum) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			return h.clamp(time.Duration(v))
		}
		cum = next
	}
	return time.Duration(h.max)
}

func (h *sparseHist) summarize() metrics.Summary {
	if h.count == 0 {
		return metrics.Summary{}
	}
	return metrics.Summary{
		Count: h.count,
		Sum:   time.Duration(h.sum),
		Mean:  time.Duration(h.sum / int64(h.count)),
		P50:   h.percentile(0.50),
		P90:   h.percentile(0.90),
		P99:   h.percentile(0.99),
		P999:  h.percentile(0.999),
		P9999: h.percentile(0.9999),
		Max:   time.Duration(h.max),
	}
}

func (h *sparseHist) cdf() []metrics.CDFPoint {
	if h.count == 0 {
		return nil
	}
	pts := make([]metrics.CDFPoint, 0, len(h.runs))
	var cum uint64
	for _, run := range h.runs {
		i, c := unpackRun(run)
		cum += c
		_, hi := h.bucketRange(i)
		pts = append(pts, metrics.CDFPoint{
			Value:    h.clamp(time.Duration(hi)),
			Fraction: float64(cum) / float64(h.count),
		})
	}
	return pts
}
