package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if p := h.Percentile(0.5); p != 0 {
		t.Fatalf("Percentile on empty = %v, want 0", p)
	}
	if pts := h.CDF(); pts != nil {
		t.Fatalf("CDF on empty = %v, want nil", pts)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewLatencyHistogram()
	v := 250 * time.Microsecond
	h.Observe(v)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != v || h.Max() != v {
		t.Fatalf("Min/Max = %v/%v, want %v", h.Min(), h.Max(), v)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if p := h.Percentile(q); p != v {
			t.Fatalf("Percentile(%v) = %v, want exactly %v (clamped)", q, p, v)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// With 5% geometric growth, any percentile estimate must be within
	// ~5% of the exact empirical quantile for a large sample.
	rng := rand.New(rand.NewSource(42))
	h := NewLatencyHistogram()
	n := 50000
	vals := make([]float64, n)
	for i := range vals {
		// Lognormal-ish latencies around 300µs with a tail.
		v := 200e3 + rng.ExpFloat64()*150e3 // ns
		if rng.Float64() < 0.01 {
			v += rng.ExpFloat64() * 5e6
		}
		vals[i] = v
		h.Observe(time.Duration(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(n))]
		got := float64(h.Percentile(q))
		rel := (got - exact) / exact
		if rel < -0.08 || rel > 0.08 {
			t.Errorf("q=%v: got %v, exact %v, rel err %.3f", q, time.Duration(got), time.Duration(exact), rel)
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewLatencyHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(rng.Int63n(int64(10 * time.Second))))
	}
	prev := time.Duration(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		p := h.Percentile(q)
		if p < prev {
			t.Fatalf("Percentile not monotone at q=%v: %v < %v", q, p, prev)
		}
		prev = p
	}
}

func TestHistogramPercentileBoundsProperty(t *testing.T) {
	// Property: for any observation set and any q, Min <= P(q) <= Max.
	f := func(raw []uint32, qseed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewLatencyHistogram()
		for _, r := range raw {
			h.Observe(time.Duration(r) * time.Microsecond)
		}
		q := float64(qseed) / 255
		p := h.Percentile(q)
		return p >= h.Min() && p <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	// Property: merging two histograms gives identical percentiles to
	// observing the union into one histogram.
	f := func(a, b []uint32) bool {
		h1 := NewLatencyHistogram()
		h2 := NewLatencyHistogram()
		all := NewLatencyHistogram()
		for _, v := range a {
			d := time.Duration(v) * time.Microsecond
			h1.Observe(d)
			all.Observe(d)
		}
		for _, v := range b {
			d := time.Duration(v) * time.Microsecond
			h2.Observe(d)
			all.Observe(d)
		}
		h1.Merge(h2)
		if h1.Count() != all.Count() || h1.Sum() != all.Sum() {
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if h1.Percentile(q) != all.Percentile(q) {
				return false
			}
		}
		return h1.Min() == all.Min() && h1.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(-time.Second)
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want 0", h.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(time.Millisecond)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(2 * time.Millisecond)
	if h.Count() != 1 || h.Min() != 2*time.Millisecond {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	pts := h.CDF()
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	prevF := 0.0
	prevV := time.Duration(0)
	for _, p := range pts {
		if p.Fraction < prevF || p.Value < prevV {
			t.Fatalf("CDF not monotone: %+v after (%v,%v)", p, prevV, prevF)
		}
		prevF, prevV = p.Fraction, p.Value
	}
	if last := pts[len(pts)-1].Fraction; last != 1.0 {
		t.Fatalf("CDF final fraction = %v, want 1.0", last)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i+1) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 || s.P999 > s.P9999 || s.P9999 > s.Max {
		t.Fatalf("summary percentiles not ordered: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	// Sum is exact (not bucket-estimated): 1+2+...+1000 microseconds.
	if want := time.Duration(1000*1001/2) * time.Microsecond; s.Sum != want {
		t.Fatalf("Sum = %v, want %v", s.Sum, want)
	}
	if want := s.Sum / time.Duration(s.Count); s.Mean != want {
		t.Fatalf("Mean = %v, want Sum/Count = %v", s.Mean, want)
	}
	if !strings.Contains(s.String(), "sum=") || !strings.Contains(s.String(), "mean=") {
		t.Fatalf("String() missing sum/mean: %q", s.String())
	}
}

func TestHistogramRetransmitSignatureBuckets(t *testing.T) {
	// The drop-rate heuristic depends on 3s and 9s RTTs landing in
	// distinguishable buckets well inside the histogram range.
	h := NewLatencyHistogram()
	h.Observe(3 * time.Second)
	h.Observe(9 * time.Second)
	if h.Max() < 9*time.Second {
		t.Fatalf("Max = %v, want >= 9s", h.Max())
	}
	if p := h.Percentile(0.25); p > 4*time.Second {
		t.Fatalf("P25 = %v, expected near 3s", p)
	}
}

func TestCDFConsistentWithPercentiles(t *testing.T) {
	// Property: for any observation set, walking the CDF at Percentile(q)
	// recovers a cumulative fraction >= q (the percentile lies inside or
	// before the bucket where the CDF crosses q).
	f := func(raw []uint32, qseed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewLatencyHistogram()
		for _, r := range raw {
			h.Observe(time.Duration(r%10_000_000) * time.Microsecond)
		}
		q := float64(qseed%100) / 100
		p := h.Percentile(q)
		pts := h.CDF()
		frac := 0.0
		for _, pt := range pts {
			if pt.Value <= p {
				frac = pt.Fraction
			}
		}
		// Allow one bucket of slack: Percentile interpolates inside the
		// crossing bucket, whose CDF point sits at the bucket's upper edge.
		if frac >= q {
			return true
		}
		for i, pt := range pts {
			if pt.Value > p {
				return pt.Fraction >= q || i == len(pts)-1
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketIndexMatchesSearch pins the O(1) bucket index to the binary
// search it replaced: for every boundary value (and its neighbors), plus
// random values over the full 0..120s range and beyond, find must return
// exactly what sort.Search did.
func TestBucketIndexMatchesSearch(t *testing.T) {
	ref := func(ns int64) int {
		return sort.Search(len(latencyBounds), func(i int) bool { return latencyBounds[i] >= ns })
	}
	check := func(ns int64) {
		t.Helper()
		if got, want := latencyIndex.find(latencyBounds, ns), ref(ns); got != want {
			t.Fatalf("find(%d) = %d, want %d", ns, got, want)
		}
	}
	check(0)
	check(1)
	for _, b := range latencyBounds {
		check(b - 1)
		check(b)
		check(b + 1)
	}
	last := latencyBounds[len(latencyBounds)-1]
	check(last * 2) // past the top bucket
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		check(rng.Int63n(last + last/2))
	}
}

// TestBucketIndexConservative verifies the table invariant find relies
// on: every cell's entry is a lower bound for the true index of every
// value mapping to that cell, and the fix-up loop runs a bounded number
// of steps — one for the geometric bounds, plus one more near the top
// where makeBounds appends the exact 120s cap right after the last
// geometric bound (those two can share a cell).
func TestBucketIndexConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	last := latencyBounds[len(latencyBounds)-1]
	for i := 0; i < 200000; i++ {
		ns := rng.Int63n(last * 2)
		start := int(latencyIndex.idx[latencyIndex.key(uint64(ns))])
		want := sort.Search(len(latencyBounds), func(i int) bool { return latencyBounds[i] >= ns })
		if start > want {
			t.Fatalf("table entry %d overshoots index %d for %d", start, want, ns)
		}
		if want-start > 2 {
			t.Fatalf("table entry %d needs %d fix-up steps for %d (cell spans >2 bounds)", start, want-start, ns)
		}
	}
}
