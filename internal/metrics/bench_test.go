package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkHistogramObserve measures both forms: "few" is the handful of
// buckets a per-peer sketch sees and "wide" the ~50 of a busy aggregate, both
// kept as runs, where an observation is a search; "dense" spreads over ~200
// buckets, past the promotion threshold, where it is an index.
func BenchmarkHistogramObserve(b *testing.B) {
	for _, c := range []struct {
		name string
		us   func(i int) int
	}{
		{"few", func(i int) int { return 200 + i%20 }},
		{"wide", func(i int) int { return 200 + i%2000 }},
		{"dense", func(i int) int { return 200 + (i%2000)*(i%2000) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := NewLatencyHistogram()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(time.Duration(c.us(i)) * time.Microsecond)
			}
		})
	}
}

// BenchmarkDecodeRuns decodes a 32-run wire histogram into reused scratch
// and merges the packed runs into a histogram holding the same buckets: the
// work PMT1 ingest and the sketch fold do per histogram, 0 allocs/op.
func BenchmarkDecodeRuns(b *testing.B) {
	src := NewLatencyHistogram()
	for i := 0; i < 32; i++ {
		lo, _ := LatencyBucketRange(100 + 3*i)
		src.Observe(lo + 1)
	}
	wire := src.AppendRuns(nil)
	dst := src.Clone()
	var scratch []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ext, _, ok := DecodeRuns(wire, scratch[:0])
		if !ok {
			b.Fatal("decode of an encoded histogram failed")
		}
		scratch = ext
		r.AddTo(dst)
	}
}

func BenchmarkHistogramPercentile(b *testing.B) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Percentile(0.99)
	}
}

func BenchmarkHistogramMerge(b *testing.B) {
	a := NewLatencyHistogram()
	c := NewLatencyHistogram()
	for i := 0; i < 10000; i++ {
		a.Observe(time.Duration(i) * time.Microsecond)
		c.Observe(time.Duration(i*2) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Clone().Merge(c)
	}
}

func BenchmarkHistogramSummarize(b *testing.B) {
	h := NewLatencyHistogram()
	for i := 0; i < 100000; i++ {
		h.Observe(time.Duration(200+i%5000) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Summarize()
	}
}

func BenchmarkLockedHistogramObserve(b *testing.B) {
	lh := NewLockedLatencyHistogram()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lh.Observe(300 * time.Microsecond)
		}
	})
}
