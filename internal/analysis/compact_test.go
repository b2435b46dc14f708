package analysis

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pingmesh/internal/metrics"
)

// fuzzRTT draws RTTs over spread doublings above 50µs (20 covers the whole
// histogram layout, past where a histogram stops keeping runs).
func fuzzRTT(rng *rand.Rand, spread int) time.Duration {
	d := time.Duration(float64(50*time.Microsecond) * (1 + rng.Float64()))
	return d << uint(rng.Intn(spread+1))
}

// TestCompactForms pins what an aggregate allocates and what it costs: no
// histogram before the first successful probe, the payload histogram only
// once a payload RTT was seen, none ever in the tallies-only form (merged
// with a full aggregate in either direction), and under 1 KB for a group
// that has seen a few dozen distinct buckets. (Which form the histogram
// itself is in, and that it reads the same in either, is internal/metrics'
// TestHistogramForms and FuzzCompactVsDense.)
func TestCompactForms(t *testing.T) {
	add := func(s *LatencyStats, bucket int, payload bool) {
		lo, _ := metrics.LatencyBucketRange(bucket)
		r := rec(lo+1, "")
		if payload {
			r.PayloadRTT = lo + 1
		}
		s.Add(&r)
	}
	s := NewLatencyStats()
	failed := rec(0, "connect: timeout")
	s.Add(&failed)
	if s.rtt != nil || s.payload != nil {
		t.Fatal("a failed probe allocated histograms")
	}
	for b := 1; b <= 200; b++ {
		add(s, b, false)
	}
	if s.rtt == nil || s.payload != nil {
		t.Fatalf("successful probes without payload: rtt %v, payload %v", s.rtt != nil, s.payload != nil)
	}
	add(s, 201, true)
	if s.payload == nil || s.Summary().Count != 201 || s.PayloadSummary().Count != 1 {
		t.Fatalf("first payload RTT: payload %v, summaries %v / %v", s.payload != nil, s.Summary(), s.PayloadSummary())
	}

	ta, full := NewTallies(), s.Clone()
	add(ta, 40, true)
	full.Merge(ta)
	ta.Merge(s)
	for _, a := range []*LatencyStats{ta, full} {
		if a.rtt != nil || a.payload != nil || a.Total() != s.Total()+1 || a.Summary().Count != 0 {
			t.Fatalf("tallies-only aggregate: histograms %v/%v, total %d, summary %v",
				a.rtt != nil, a.payload != nil, a.Total(), a.Summary())
		}
	}

	// Heap cost of a group that has seen 32 distinct buckets.
	const groups = 4096
	keep := make([]*LatencyStats, groups)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewLatencyStats()
		for b := 0; b < 32; b++ {
			add(keep[i], 60+2*b, false)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (after.HeapAlloc - before.HeapAlloc) / groups; per > 1024 {
		t.Fatalf("a group with 32 distinct buckets costs %d B, want <= 1 KB", per)
	}
	runtime.KeepAlive(keep)
}

// TestCloneSharesNoState: mutating a clone — in the sparse form, across its
// promotion, and in the dense form — leaves what the source renders
// unchanged.
func TestCloneSharesNoState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{20, 5000} { // sparse; dense
		src := NewLatencyStats()
		for i := 0; i < n; i++ {
			r := rec(fuzzRTT(rng, 12), "")
			r.PayloadRTT = fuzzRTT(rng, 3)
			src.Add(&r)
		}
		summary, cdf, payload := src.Summary(), src.CDF(), src.PayloadSummary()
		c := src.Clone()
		for i := 0; i < 5000; i++ {
			r := rec(fuzzRTT(rng, 20), "")
			r.PayloadRTT = fuzzRTT(rng, 20)
			c.Add(&r)
		}
		c.Merge(src)
		if src.Summary() != summary || !reflect.DeepEqual(src.CDF(), cdf) || src.PayloadSummary() != payload {
			t.Fatalf("n=%d: mutating the clone changed the source", n)
		}
		if c.Total() != 2*src.Total()+5000 {
			t.Fatalf("n=%d: clone total %d", n, c.Total())
		}
	}
}
