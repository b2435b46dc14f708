package metrics

import "encoding/binary"

// Wire form of a latency histogram — the `hist` of the PMB1 (internal/probe)
// and PMT1 (internal/telemetry) grammars, encoded and validated here and
// nowhere else. All integers are encoding/binary varints ("uv" unsigned,
// "v" signed zig-zag):
//
//	hist := nRuns:uv [sum_ns:v min_ns:v max_ns:v run*]   // tallies only when nRuns > 0
//	run  := gap:uv count:uv   // first gap = bucket index; later gaps = idx - prevIdx >= 1
//
// Only non-empty buckets are carried, in ascending order, so a histogram
// costs a few bytes per distinct bucket whatever its in-memory form.

// maxRunsCount bounds the total observation count a decoded histogram may
// claim, so corrupt or adversarial input cannot smuggle absurd tallies into
// downstream aggregates.
const maxRunsCount = 1 << 48

// RunEncoder appends one histogram in the wire form a run at a time, for a
// caller that derives the buckets as it goes (PMT1 ships per-bucket
// differences): BeginRuns, Run per non-empty bucket in strictly ascending
// index order, End. A whole Histogram goes through AppendRuns.
type RunEncoder struct {
	at   int // dst offset where End splices nRuns in front of the tallies
	n    int
	prev int
}

// BeginRuns opens a histogram entry at the end of dst.
func BeginRuns(dst []byte, sum, min, max int64) ([]byte, RunEncoder) {
	e := RunEncoder{at: len(dst)}
	dst = binary.AppendVarint(dst, sum)
	dst = binary.AppendVarint(dst, min)
	return binary.AppendVarint(dst, max), e
}

// Run appends count observations in bucket index; count must be positive.
func (e *RunEncoder) Run(dst []byte, index int, count uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(index-e.prev))
	e.prev = index
	e.n++
	return binary.AppendUvarint(dst, count)
}

// End closes the entry. One that received no Run is the empty histogram:
// nRuns = 0 and the tallies dropped.
func (e *RunEncoder) End(dst []byte) []byte {
	if e.n == 0 {
		return binary.AppendUvarint(dst[:e.at], 0)
	}
	// Splice nRuns in front of the tallies: append the varint (growing dst by
	// its width), shift the entry right with one overlap-safe copy, then
	// write the varint into the gap.
	var scratch [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(scratch[:], uint64(e.n))
	size := len(dst) - e.at
	dst = append(dst, scratch[:w]...)
	copy(dst[e.at+w:], dst[e.at:e.at+size])
	copy(dst[e.at:], scratch[:w])
	return dst
}

// AppendRuns appends h in the wire form. A nil histogram encodes as the
// empty one.
func (h *Histogram) AppendRuns(dst []byte) []byte {
	if h == nil || h.count == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	dst, e := BeginRuns(dst, h.sum, h.min, h.max)
	it := h.Buckets()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		dst = e.Run(dst, b.Index, b.Count)
	}
	return e.End(dst)
}

// Runs is one decoded wire histogram: the exact tallies, and the non-empty
// buckets as runs packed the way a Histogram keeps them (sketch.go), which
// alias the scratch DecodeRuns appended them to — valid only while that
// scratch is not overwritten. An empty histogram has Count == 0 and no runs.
type Runs struct {
	Count uint64 // total observations across all runs
	Sum   int64
	Min   int64
	Max   int64
	runs  []uint64
}

// DecodeRuns decodes and validates the histogram at the head of d in one
// pass, appending its runs to scratch. It returns the histogram, whose runs
// are the appended tail, the extended scratch and the number of bytes the
// histogram occupies; on failure scratch comes back as it went in. It
// accepts exactly what Runs promises: nRuns within the layout, min <= max,
// every bucket index inside the layout and strictly above the one before it,
// every count positive, and the counts summing to at most 2^48.
func DecodeRuns(d []byte, scratch []uint64) (r Runs, ext []uint64, size int, ok bool) {
	layout := uint64(LatencyBucketCount())
	nb, off, ok := Uvarint(d, 0)
	if !ok || nb > layout {
		return Runs{}, scratch, 0, false
	}
	if nb == 0 {
		return Runs{}, scratch, off, true
	}
	if r.Sum, off, ok = Varint(d, off); !ok {
		return Runs{}, scratch, 0, false
	}
	if r.Min, off, ok = Varint(d, off); !ok {
		return Runs{}, scratch, 0, false
	}
	if r.Max, off, ok = Varint(d, off); !ok || r.Max < r.Min {
		return Runs{}, scratch, 0, false
	}
	ext = scratch
	var idx, total uint64
	for i := uint64(0); i < nb; i++ {
		var gap, c uint64
		if off+1 < len(d) && d[off]|d[off+1] < 0x80 {
			// Most runs are a one-byte gap and a one-byte count: read both
			// here rather than through two calls.
			gap, c, off = uint64(d[off]), uint64(d[off+1]), off+2
		} else {
			if gap, off, ok = Uvarint(d, off); !ok {
				return Runs{}, scratch, 0, false
			}
			if c, off, ok = Uvarint(d, off); !ok {
				return Runs{}, scratch, 0, false
			}
		}
		// The gap is bounded before it is added: a ten-byte varint past 2^63
		// would otherwise wrap the index and step the runs backwards.
		// Likewise the count, before it can wrap the total (2^48 fits a run).
		if gap >= layout || gap == 0 && i > 0 || idx+gap >= layout ||
			c == 0 || c > maxRunsCount-total {
			return Runs{}, scratch, 0, false
		}
		idx += gap
		total += c
		ext = append(ext, idx<<runCountBits|c)
	}
	r.Count, r.runs = total, ext[len(scratch):]
	return r, ext, off, true
}

// WithRuns returns r's tallies carrying runs, which must be the runs
// DecodeRuns appended for r. It is for a caller that keeps decoded
// histograms by their offset into the scratch: a slice into scratch on its
// stack, stored, would move that scratch to the heap.
func (r Runs) WithRuns(runs []uint64) Runs {
	r.runs = runs
	return r
}

// Clone returns a copy of r whose runs no longer alias the decode scratch.
func (r Runs) Clone() Runs {
	r.runs = append([]uint64(nil), r.runs...)
	return r
}

// Buckets returns an iterator over the histogram's non-empty buckets in
// ascending index order.
func (r Runs) Buckets() BucketIter {
	return BucketIter{buckets: r.runs}
}

// AddTo folds the histogram into dst: the runs merge-joined into dst's
// buckets, then the exact tallies. Folding allocates nothing beyond growth
// of dst's runs and costs one pass over the non-empty buckets — no
// per-observation replay. An empty histogram folds nothing.
func (r Runs) AddTo(dst *Histogram) {
	if r.Count == 0 {
		return
	}
	dst.addRuns(r.runs)
	dst.AddTallies(r.Sum, r.Min, r.Max)
}

// Uvarint reads the encoding/binary unsigned varint at d[off:], off <=
// len(d), returning it and the offset past it; ok is false on truncation or
// overflow. It is the one varint reader of the histogram, PMB1 and PMT1
// decoders. Gaps, counts, name lengths and most deltas fit one byte, which
// it reads before anything else.
func Uvarint(d []byte, off int) (v uint64, next int, ok bool) {
	if off < len(d) && d[off] < 0x80 {
		return uint64(d[off]), off + 1, true
	}
	v, n := binary.Uvarint(d[off:])
	if n <= 0 {
		return 0, off, false
	}
	return v, off + n, true
}

// Varint reads the encoding/binary signed (zig-zag) varint at d[off:] the
// way Uvarint reads an unsigned one.
func Varint(d []byte, off int) (v int64, next int, ok bool) {
	u, next, ok := Uvarint(d, off)
	return int64(u>>1) ^ -int64(u&1), next, ok
}
