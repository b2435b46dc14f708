package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// denseRef is the histogram as it was before it became self-compacting: one
// count per bucket allocated up front, and the read side written over that
// array. The adaptive Histogram must read exactly as this does over the same
// inputs, in whichever form it is in.
type denseRef struct {
	counts        []uint64
	count         uint64
	sum, min, max int64
}

func newDenseRef() *denseRef {
	return &denseRef{counts: make([]uint64, LatencyBucketCount()), min: math.MaxInt64}
}

func (d *denseRef) observe(v time.Duration) {
	ns := int64(v)
	if ns < 0 {
		ns = 0
	}
	d.counts[LatencyBucketOf(v)]++
	d.count++
	d.tally(ns, ns, ns)
}

func (d *denseRef) tally(sum, min, max int64) {
	d.sum += sum
	if min < d.min {
		d.min = min
	}
	if max > d.max {
		d.max = max
	}
}

func (d *denseRef) merge(o *denseRef) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.count += o.count
	if o.count > 0 {
		d.tally(o.sum, o.min, o.max)
	}
}

func (d *denseRef) clone() *denseRef {
	c := *d
	c.counts = append([]uint64(nil), d.counts...)
	return &c
}

func (d *denseRef) bucketRange(i int) (lo, hi int64) {
	l, h := LatencyBucketRange(i)
	if i == len(d.counts)-1 {
		return int64(l), d.max
	}
	return int64(l), int64(h)
}

func (d *denseRef) clamp(v time.Duration) time.Duration {
	if v < time.Duration(d.min) {
		return time.Duration(d.min)
	}
	if v > time.Duration(d.max) {
		return time.Duration(d.max)
	}
	return v
}

func (d *denseRef) percentile(q float64) time.Duration {
	if d.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(d.min)
	}
	if q >= 1 {
		return time.Duration(d.max)
	}
	rank := q * float64(d.count)
	var cum float64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := d.bucketRange(i)
			frac := (rank - cum) / float64(c)
			return d.clamp(time.Duration(lo + int64(frac*float64(hi-lo))))
		}
		cum = next
	}
	return time.Duration(d.max)
}

func (d *denseRef) summarize() Summary {
	if d.count == 0 {
		return Summary{}
	}
	return Summary{
		Count: d.count,
		Sum:   time.Duration(d.sum),
		Mean:  time.Duration(d.sum / int64(d.count)),
		P50:   d.percentile(0.50),
		P90:   d.percentile(0.90),
		P99:   d.percentile(0.99),
		P999:  d.percentile(0.999),
		P9999: d.percentile(0.9999),
		Max:   time.Duration(d.max),
	}
}

func (d *denseRef) cdf() []CDFPoint {
	var pts []CDFPoint
	var cum uint64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		cum += c
		_, hi := d.bucketRange(i)
		pts = append(pts, CDFPoint{Value: d.clamp(time.Duration(hi)), Fraction: float64(cum) / float64(d.count)})
	}
	return pts
}

// checkAgainst compares every accessor of got, its bucket stream and its
// form with the reference.
func (d *denseRef) checkAgainst(t *testing.T, what string, got *Histogram) {
	t.Helper()
	if got.Count() != d.count || int64(got.Sum()) != d.sum {
		t.Fatalf("%s: count/sum %d/%d, want %d/%d", what, got.Count(), got.Sum(), d.count, d.sum)
	}
	if d.count > 0 && (int64(got.Min()) != d.min || int64(got.Max()) != d.max) {
		t.Fatalf("%s: min/max %d/%d, want %d/%d", what, got.Min(), got.Max(), d.min, d.max)
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.9999, 1} {
		if g, w := got.Percentile(q), d.percentile(q); g != w {
			t.Fatalf("%s: P%v = %v, want %v", what, q*100, g, w)
		}
	}
	if g, w := got.Summarize(), d.summarize(); g != w {
		t.Fatalf("%s: summary\ngot  %v\nwant %v", what, g, w)
	}
	if g, w := got.CDF(), d.cdf(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: CDF\ngot  %v\nwant %v", what, g, w)
	}
	it := got.Buckets()
	distinct, wide := 0, false
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		distinct++
		wide = wide || c > runCountMask
		if b, ok := it.Next(); !ok || b != (Bucket{Index: i, Count: c}) {
			t.Fatalf("%s: bucket stream yields %+v (ok=%v), want {%d %d}", what, b, ok, i, c)
		}
	}
	if b, ok := it.Next(); ok {
		t.Fatalf("%s: bucket stream yields %+v past the last non-empty bucket", what, b)
	}
	if want := distinct > maxRuns || wide; got.dense() != want {
		t.Fatalf("%s: dense form %v with %d distinct buckets (count past a run: %v)", what, got.dense(), distinct, wide)
	}
}

// fuzzRTT draws RTTs that make some histograms stay in a handful of buckets
// and push others across the promotion threshold: spread is the number of
// doublings above 50µs the draw may reach (20 covers the whole layout).
func fuzzRTT(rng *rand.Rand, spread int) time.Duration {
	d := time.Duration(float64(50*time.Microsecond) * (1 + rng.Float64()))
	return d << uint(rng.Intn(spread+1))
}

// FuzzCompactVsDense drives arbitrary interleavings of Observe, AddBucket,
// Merge, Clone, CopyInto, Reset and a trip through the wire form over a few
// histograms — sparse and promoted, merged and copied in both directions
// across the promotion threshold, with counts up to and past what a run
// holds — and requires every histogram to read exactly as the dense
// reference built from the same inputs. Each clone is compared with its own
// reference and its source with the source's, so a copy that shared storage
// with its source shows as soon as either is touched again. Tier-4 target.
func FuzzCompactVsDense(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(3))
	f.Add(int64(2), uint16(400), uint8(12))
	f.Add(int64(3), uint16(1500), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, nops uint16, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		sp := int(spread % 21)
		const slots = 5
		got := make([]*Histogram, slots)
		want := make([]*denseRef, slots)
		for i := range got {
			got[i], want[i] = NewLatencyHistogram(), newDenseRef()
		}
		var buf []byte
		for op := 0; op < int(nops%2048)+1; op++ {
			i, j := rng.Intn(slots), rng.Intn(slots)
			if want[i].count > 1<<60 { // keep doubling merges from wrapping a uint64
				got[i].Reset()
				want[i] = newDenseRef()
			}
			switch k := rng.Intn(16); {
			case k < 8:
				v := fuzzRTT(rng, sp)
				got[i].Observe(v)
				want[i].observe(v)
			case k < 10: // a sketch's worth of buckets, some at the edge of a run's count
				for n := rng.Intn(40) + 1; n > 0; n-- {
					v := fuzzRTT(rng, sp)
					c := []uint64{1, 7, 1 << 20, runCountMask - 1, runCountMask}[rng.Intn(5)%(1+sp/5)]
					got[i].AddBucket(LatencyBucketOf(v), c)
					got[i].AddTallies(int64(v), int64(v), int64(v))
					want[i].counts[LatencyBucketOf(v)] += c
					want[i].count += c
					want[i].tally(int64(v), int64(v), int64(v))
				}
			case k < 12:
				if i != j {
					got[i].Merge(got[j])
					want[i].merge(want[j])
				}
			case k < 13:
				got[i], want[i] = got[j].Clone(), want[j].clone()
			case k < 14:
				if i != j {
					got[j].CopyInto(got[i])
					want[i] = want[j].clone()
				}
			case k < 15:
				got[i].Reset()
				want[i] = newDenseRef()
			default: // through the wire: decode accepts it iff the count is within bound
				buf = got[j].AppendRuns(buf[:0])
				r, _, size, ok := DecodeRuns(buf, nil)
				if ok != (want[j].count <= maxRunsCount) || ok && size != len(buf) {
					t.Fatalf("decode of %d observations: ok=%v, %d of %d bytes", want[j].count, ok, size, len(buf))
				}
				if ok && i != j {
					r.AddTo(got[i])
					want[i].merge(want[j])
				}
			}
			want[i].checkAgainst(t, "touched slot", got[i])
		}
		for i := range got {
			want[i].checkAgainst(t, "slot", got[i])
		}
	})
}

// TestHistogramForms pins which form a histogram is in at the promotion
// boundary and that the form follows from the content alone: 127 and 128
// distinct buckets stay runs, the 129th promotes, a count past what a run
// holds promotes, and the same content reached by observing, by merging in
// either order and through the wire is reflect.DeepEqual.
func TestHistogramForms(t *testing.T) {
	fill := func(h *Histogram, ref *denseRef, from, to int) {
		for b := from; b < to; b++ {
			lo, _ := LatencyBucketRange(b)
			h.Observe(lo + 1)
			ref.observe(lo + 1)
		}
	}
	h, ref := NewLatencyHistogram(), newDenseRef()
	next := 1
	for _, n := range []int{maxRuns - 1, maxRuns, maxRuns + 1} {
		fill(h, ref, next, 1+n)
		next = 1 + n
		ref.checkAgainst(t, "boundary", h)
		if dense := n > maxRuns; h.dense() != dense || !dense && len(h.buckets) != n {
			t.Fatalf("%d distinct buckets: dense %v, %d words", n, h.dense(), len(h.buckets))
		}
	}

	// Two halves whose union crosses the threshold: any order, same histogram.
	a, b, refA, refB := NewLatencyHistogram(), NewLatencyHistogram(), newDenseRef(), newDenseRef()
	fill(a, refA, 1, 100)
	fill(b, refB, 60, 170)
	ab, ba := a.Clone(), b.Clone()
	ab.Merge(b)
	ba.Merge(a)
	wire := NewLatencyHistogram()
	for _, src := range []*Histogram{b, a} {
		r, _, _, ok := DecodeRuns(src.AppendRuns(nil), nil)
		if !ok {
			t.Fatal("decode of an encoded histogram failed")
		}
		r.AddTo(wire)
	}
	refA.merge(refB)
	refA.checkAgainst(t, "a+b", ab)
	if !ab.dense() || a.dense() || b.dense() {
		t.Fatalf("forms: a %v, b %v, a+b %v", a.dense(), b.dense(), ab.dense())
	}
	if !reflect.DeepEqual(ab, ba) || !reflect.DeepEqual(ab, wire) {
		t.Fatalf("a+b, b+a and the wire fold differ:\n%+v\n%+v\n%+v", ab, ba, wire)
	}

	// A run holds counts up to runCountMask; one more promotes and stays exact.
	big, refBig := NewLatencyHistogram(), newDenseRef()
	lo, _ := LatencyBucketRange(50)
	big.AddBucket(50, runCountMask)
	big.AddTallies(1<<50, int64(lo)+1, int64(lo)+1)
	refBig.counts[50], refBig.count = runCountMask, runCountMask
	refBig.tally(1<<50, int64(lo)+1, int64(lo)+1)
	refBig.checkAgainst(t, "run at its count limit", big)
	both := big.Clone()
	both.Merge(big)
	big.Observe(lo + 1)
	refBig.observe(lo + 1)
	refBig.checkAgainst(t, "run past its count limit", big)
	if !big.dense() || !both.dense() || both.Count() != 2*runCountMask {
		t.Fatalf("count past a run: observed dense %v, merged dense %v count %d", big.dense(), both.dense(), both.Count())
	}

	// Reset returns to the runs form and keeps the storage.
	big.Reset()
	if big.dense() || cap(big.buckets) != LatencyBucketCount() || big.Count() != 0 {
		t.Fatalf("after Reset: dense %v, cap %d, count %d", big.dense(), cap(big.buckets), big.Count())
	}
	newDenseRef().checkAgainst(t, "reset", big)
}

// refDecodeRuns is the histogram decoder written plainly over
// encoding/binary, one bucket at a time: what DecodeRuns must accept, reject
// and yield.
func refDecodeRuns(d []byte) (bs []Bucket, sum, min, max int64, size int, ok bool) {
	var n int
	uv := func() (v uint64) {
		if v, n = binary.Uvarint(d[size:]); n > 0 {
			size += n
		}
		return v
	}
	sv := func() (v int64) {
		if v, n = binary.Varint(d[size:]); n > 0 {
			size += n
		}
		return v
	}
	layout := uint64(LatencyBucketCount())
	nb := uv()
	if n <= 0 || nb > layout {
		return nil, 0, 0, 0, 0, false
	}
	if nb == 0 {
		return nil, 0, 0, 0, size, true
	}
	if sum = sv(); n <= 0 {
		return nil, 0, 0, 0, 0, false
	}
	if min = sv(); n <= 0 {
		return nil, 0, 0, 0, 0, false
	}
	if max = sv(); n <= 0 || max < min {
		return nil, 0, 0, 0, 0, false
	}
	var total uint64
	for i := uint64(0); i < nb; i++ {
		gap := uv()
		if n <= 0 || gap >= layout || i > 0 && gap == 0 {
			return nil, 0, 0, 0, 0, false
		}
		idx := int(gap)
		if i > 0 {
			idx += bs[i-1].Index
		}
		c := uv()
		if n <= 0 || idx >= int(layout) || c == 0 || c > maxRunsCount-total {
			return nil, 0, 0, 0, 0, false
		}
		total += c
		bs = append(bs, Bucket{Index: idx, Count: c})
	}
	return bs, sum, min, max, size, true
}

// FuzzRuns fuzzes the wire codec from both ends. Arbitrary bytes must never
// panic the decoder, which must accept exactly what the plain reference
// decoder accepts — every bucket index inside the layout and strictly
// ascending, every count positive, at most 2^48 in all, min <= max — and
// yield the same buckets, tallies and size. Whatever it accepts, merged
// packed into an empty, a sparse and a dense histogram, must leave each
// reflect.DeepEqual to folding the reference's buckets one by one with
// AddBucket and AddTallies. Then a histogram grown from the same bytes must
// survive encode, decode and fold unchanged. Tier-4 target.
func FuzzRuns(f *testing.F) {
	wrap := []byte{2, 4, 2, 2, 5, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1}
	f.Add(wrap) // 5, then a gap of 2^64−1
	f.Add([]byte{0})
	f.Add([]byte{2, 4, 2, 2, 5, 1, 1, 1})
	f.Add([]byte{1, 0, 0, 0, 0xfd, 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}) // last bucket, 2^48
	f.Add([]byte{1, 0, 0, 0, 0xfe, 0x02, 1})                                        // past the last bucket
	f.Add([]byte{2, 4, 2, 2, 5, 1, 0, 1})                                           // a repeated bucket
	f.Add([]byte{1, 4, 2, 2, 5, 0})                                                 // a zero count
	f.Add([]byte{2, 4, 2, 2, 5, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 1, 1})    // 2^48 + 1 in all
	f.Add([]byte{1, 4, 4, 2, 5, 1})                                                 // max < min
	// The edges of the one-byte run read in line.
	f.Add([]byte{1, 4, 2, 2, 5, 0x80, 0x01})                                        // a one-byte gap, a two-byte count
	f.Add([]byte{2, 4, 2, 2, 5, 0x7f, 1, 0x80, 0x01})                               // counts 0x7f, then 0x80
	f.Add([]byte{1, 4, 2, 2, 5})                                                    // truncated before the first run
	f.Add([]byte{2, 4, 2, 2, 5, 1, 1})                                              // truncated after a gap byte
	f.Add([]byte{2, 4, 2, 2, 5, 0x80, 0x01, 0, 1})                                  // gap 0 after a two-byte count
	f.Add([]byte{2, 4, 2, 2, 0xac, 0x02, 1, 0x51, 1})                               // a one-byte run onto the last bucket
	f.Add([]byte{2, 4, 2, 2, 0xac, 0x02, 1, 0x52, 1})                               // and one past it
	f.Add([]byte{2, 4, 2, 2, 5, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 1, 0x7f}) // 2^48 + 127 in all
	sparse, dense, wide := NewLatencyHistogram(), NewLatencyHistogram(), NewLatencyHistogram()
	for b := 1; b < 2*maxRuns; b++ {
		lo, _ := LatencyBucketRange(b)
		if b%40 == 0 {
			sparse.Observe(lo + 1)
		}
		if b <= maxRuns-2 {
			wide.Observe(lo + 1)
		}
		dense.Observe(lo + 1)
	}
	f.Add(wide.AppendRuns(nil)) // merged into sparse, it switches form part way through
	f.Fuzz(func(t *testing.T, data []byte) {
		bs, sum, min, max, refSize, refOK := refDecodeRuns(data)
		scratch := []uint64{7} // decoding appends after what the caller holds
		r, ext, size, ok := DecodeRuns(data, scratch)
		if ok != refOK || ok && size != refSize {
			t.Fatalf("decode: ok=%v with %d bytes, the reference ok=%v with %d", ok, size, refOK, refSize)
		}
		if ok {
			if size <= 0 || size > len(data) || r.Count > maxRunsCount || r.Count > 0 && r.Max < r.Min {
				t.Fatalf("accepted %d bytes of %d as %+v", size, len(data), r)
			}
			if ext[0] != 7 || len(ext) != 1+len(bs) {
				t.Fatalf("scratch %v after decoding %d runs", ext, len(bs))
			}
			var total uint64
			var got []Bucket
			prev := -1
			it := r.Buckets()
			for b, ok := it.Next(); ok; b, ok = it.Next() {
				if b.Index <= prev || b.Index >= LatencyBucketCount() || b.Count == 0 {
					t.Fatalf("accepted runs yield %+v after bucket %d", b, prev)
				}
				prev = b.Index
				got = append(got, b)
				total += b.Count
			}
			if !reflect.DeepEqual(got, bs) || total != r.Count || len(bs) > 0 && (r.Sum != sum || r.Min != min || r.Max != max) {
				t.Fatalf("decoded %+v with buckets %v, the reference %v (sum %d, min %d, max %d)", r, got, bs, sum, min, max)
			}
			for _, base := range []*Histogram{NewLatencyHistogram(), sparse, dense} {
				merged, want := base.Clone(), base.Clone()
				r.AddTo(merged)
				for _, b := range bs {
					want.AddBucket(b.Index, b.Count)
				}
				if len(bs) > 0 {
					want.AddTallies(sum, min, max)
				}
				if !reflect.DeepEqual(merged, want) {
					t.Fatalf("packed merge into a %d-bucket base:\ngot  %+v\nwant %+v", len(base.buckets), merged, want)
				}
			}
		} else if len(ext) != len(scratch) {
			t.Fatalf("a refused histogram extended the scratch to %v", ext)
		}

		h := NewLatencyHistogram()
		for i := 0; i+1 < len(data); i += 2 {
			h.Observe(time.Duration(data[i]) << (data[i+1] % 36))
		}
		enc := h.AppendRuns(nil)
		r, _, size, ok = DecodeRuns(append(enc, data...), nil) // whatever follows is not its business
		if !ok || size != len(enc) {
			t.Fatalf("decode of an encoded histogram: ok=%v, %d of %d bytes", ok, size, len(enc))
		}
		back := NewLatencyHistogram()
		r.AddTo(back)
		if !reflect.DeepEqual(h, back) {
			t.Fatalf("round trip changed the histogram:\ngot  %+v\nwant %+v", back, h)
		}
	})
}
