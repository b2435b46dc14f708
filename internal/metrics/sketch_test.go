package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Sketch transport must reconstruct a histogram exactly: folding the
// sparse buckets plus tallies of one histogram into an empty one yields
// bucket-for-bucket identical state.
func TestSketchRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewLatencyHistogram()
	for i := 0; i < 10000; i++ {
		src.Observe(time.Duration(rng.Int63n(int64(30 * time.Second))))
	}
	src.Observe(histMax + time.Second) // overflow bucket
	src.Observe(0)

	dst := NewLatencyHistogram()
	it := src.Buckets()
	var total uint64
	prev := -1
	for {
		b, ok := it.Next()
		if !ok {
			break
		}
		if b.Index <= prev {
			t.Fatalf("bucket indexes not strictly ascending: %d after %d", b.Index, prev)
		}
		if b.Count == 0 {
			t.Fatalf("iterator yielded empty bucket %d", b.Index)
		}
		prev = b.Index
		total += b.Count
		dst.AddBucket(b.Index, b.Count)
	}
	if total != src.Count() {
		t.Fatalf("iterated count %d, want %d", total, src.Count())
	}
	dst.AddTallies(int64(src.Sum()), int64(src.Min()), int64(src.Max()))

	if got, want := dst.Summarize(), src.Summarize(); got != want {
		t.Fatalf("round-tripped summary %v, want %v", got, want)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("round-tripped histogram differs:\ngot  %+v\nwant %+v", dst, src)
	}
}

// Folding two sketches into one histogram must equal Merge of the source
// histograms (the mergeability contract).
func TestSketchFoldMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := NewLatencyHistogram(), NewLatencyHistogram()
	for i := 0; i < 5000; i++ {
		a.Observe(time.Duration(rng.Int63n(int64(time.Second))))
		b.Observe(time.Duration(rng.Int63n(int64(time.Minute))))
	}

	merged := a.Clone()
	merged.Merge(b)

	folded := NewLatencyHistogram()
	for _, src := range []*Histogram{a, b} {
		it := src.Buckets()
		for {
			bk, ok := it.Next()
			if !ok {
				break
			}
			folded.AddBucket(bk.Index, bk.Count)
		}
		folded.AddTallies(int64(src.Sum()), int64(src.Min()), int64(src.Max()))
	}
	if got, want := folded.Summarize(), merged.Summarize(); got != want {
		t.Fatalf("folded summary %v, want merged %v", got, want)
	}
}

func TestLatencyBucketOfMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.Int63n(int64(histMax) * 2))
		h := NewLatencyHistogram()
		h.Observe(d)
		it := h.Buckets()
		b, _ := it.Next()
		want := b.Index
		if got := LatencyBucketOf(d); got != want {
			t.Fatalf("LatencyBucketOf(%v) = %d, Observe filled bucket %d", d, got, want)
		}
	}
	if got := LatencyBucketOf(-time.Second); got != LatencyBucketOf(0) {
		t.Fatalf("negative durations must clamp to bucket 0's bucket: got %d", got)
	}
}

func TestLatencyBucketRange(t *testing.T) {
	n := LatencyBucketCount()
	if n != len(latencyBounds)+1 {
		t.Fatalf("LatencyBucketCount = %d, want %d", n, len(latencyBounds)+1)
	}
	var prevHi time.Duration
	for i := 0; i < n; i++ {
		lo, hi := LatencyBucketRange(i)
		if lo >= hi {
			t.Fatalf("bucket %d: lo %v >= hi %v", i, lo, hi)
		}
		if i > 0 && lo != prevHi {
			t.Fatalf("bucket %d: lo %v != previous hi %v (ranges must tile)", i, lo, prevHi)
		}
		prevHi = hi
		// The error-bound contract: within the geometric span, hi/lo is
		// at most the growth factor (plus integer-truncation slack).
		if i > 0 && i < n-1 && lo > 0 {
			if ratio := float64(hi) / float64(lo); ratio > LatencyBucketGrowth*1.001 {
				t.Fatalf("bucket %d: ratio %.4f exceeds growth %.4f", i, ratio, LatencyBucketGrowth)
			}
		}
	}
	for _, bad := range []int{-1, n} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LatencyBucketRange(%d) did not panic", bad)
				}
			}()
			LatencyBucketRange(bad)
		}()
	}
}

func TestAddBucketPanicsOutOfRange(t *testing.T) {
	h := NewLatencyHistogram()
	for _, bad := range []int{-1, LatencyBucketCount()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddBucket(%d, 1) did not panic", bad)
				}
			}()
			h.AddBucket(bad, 1)
		}()
	}
}

// The sparse iterator feeds the binary encoder's hot path; it must not
// allocate.
func TestBucketIterZeroAlloc(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
	}
	allocs := testing.AllocsPerRun(100, func() {
		it := h.Buckets()
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Buckets iteration allocated %.1f/op, want 0", allocs)
	}
}
