package analysis

import (
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
)

// denseRef is the aggregate as it was before it became compact: two dense
// histograms allocated up front and the tallies. The compact LatencyStats
// must read exactly as this does over the same inputs.
type denseRef struct {
	rtt, payload                 *metrics.Histogram
	total, success, rtt3s, rtt9s uint64
	tallies                      bool // histograms no longer cover every probe
}

func newDenseRef(tallies bool) *denseRef {
	return &denseRef{rtt: metrics.NewLatencyHistogram(), payload: metrics.NewLatencyHistogram(), tallies: tallies}
}

func (d *denseRef) add(r *probe.Record) {
	d.total++
	if !r.Success() {
		return
	}
	d.success++
	d.rtt.Observe(r.RTT)
	if r.PayloadRTT > 0 {
		d.payload.Observe(r.PayloadRTT)
	}
	switch DropSignature(r.RTT) {
	case 1:
		d.rtt3s++
	case 2:
		d.rtt9s++
	}
}

func (d *denseRef) merge(o *denseRef) {
	d.rtt.Merge(o.rtt)
	d.payload.Merge(o.payload)
	d.total += o.total
	d.success += o.success
	d.rtt3s += o.rtt3s
	d.rtt9s += o.rtt9s
	d.tallies = d.tallies || o.tallies
}

func (d *denseRef) clone() *denseRef {
	c := *d
	c.rtt, c.payload = d.rtt.Clone(), d.payload.Clone()
	return &c
}

// checkAgainst compares every accessor of got with the reference.
func (d *denseRef) checkAgainst(t *testing.T, what string, got *LatencyStats) {
	t.Helper()
	if got.Total() != d.total || got.Success() != d.success || got.Failed() != d.total-d.success {
		t.Fatalf("%s: counts %d/%d/%d, want %d/%d/%d", what, got.Total(), got.Success(), got.Failed(),
			d.total, d.success, d.total-d.success)
	}
	var drop, fail float64
	if d.success > 0 {
		drop = float64(d.rtt3s+d.rtt9s) / float64(d.success)
	}
	if d.total > 0 {
		fail = float64(d.total-d.success) / float64(d.total)
	}
	if got.DropRate() != drop || got.FailureRate() != fail {
		t.Fatalf("%s: drop/failure rate %v/%v, want %v/%v", what, got.DropRate(), got.FailureRate(), drop, fail)
	}
	rtt, payload := d.rtt, d.payload
	if d.tallies {
		// A tallies-only aggregate reads as one with empty histograms.
		rtt, payload = metrics.NewLatencyHistogram(), metrics.NewLatencyHistogram()
	}
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.9999, 1} {
		if g, w := got.Percentile(q), rtt.Percentile(q); g != w {
			t.Fatalf("%s: P%v = %v, want %v", what, q*100, g, w)
		}
	}
	if g, w := got.Summary(), rtt.Summarize(); g != w {
		t.Fatalf("%s: summary\ngot  %v\nwant %v", what, g, w)
	}
	if g, w := got.CDF(), rtt.CDF(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: CDF\ngot  %v\nwant %v", what, g, w)
	}
	if g, w := got.PayloadSummary(), payload.Summarize(); g != w {
		t.Fatalf("%s: payload summary\ngot  %v\nwant %v", what, g, w)
	}
	if g, w := got.PayloadCDF(), payload.CDF(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: payload CDF\ngot  %v\nwant %v", what, g, w)
	}
}

// fuzzRTT draws RTTs that make some aggregates stay in a handful of buckets
// and push others across the promotion threshold: spread is the number of
// doublings above 50µs the draw may reach (20 covers the whole layout).
func fuzzRTT(rng *rand.Rand, spread int) time.Duration {
	d := time.Duration(float64(50*time.Microsecond) * (1 + rng.Float64()))
	return d << uint(rng.Intn(spread+1))
}

// FuzzCompactVsDense drives arbitrary interleavings of Add, AddSketch,
// Merge and Clone over a few aggregates — full and tallies-only, sparse and
// promoted, merged in both directions across the promotion threshold — and
// requires every accessor of every aggregate to read exactly as the dense
// reference built from the same inputs. Each clone is compared with its own
// reference and its source with the source's, so a clone that shared runs or
// a histogram with its source shows as soon as either is touched again.
// Tier-4 target.
func FuzzCompactVsDense(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(3))
	f.Add(int64(2), uint16(400), uint8(12))
	f.Add(int64(3), uint16(1500), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, nops uint16, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		sp := int(spread % 21)
		const slots = 5
		got := make([]*LatencyStats, slots)
		want := make([]*denseRef, slots)
		for i := range got {
			tallies := i == slots-1
			got[i], want[i] = NewLatencyStats(), newDenseRef(tallies)
			if tallies {
				got[i] = NewTallies()
			}
		}
		src, dst := netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 0, 0, 2})
		for op := 0; op < int(nops%2048)+1; op++ {
			i, j := rng.Intn(slots), rng.Intn(slots)
			switch k := rng.Intn(10); {
			case k < 5:
				r := probe.Record{Start: at, Src: src, Dst: dst, RTT: fuzzRTT(rng, sp)}
				switch rng.Intn(8) {
				case 0:
					r.Err = "connect: timeout"
				case 1:
					r.RTT = 3 * time.Second
				case 2:
					r.RTT = 9 * time.Second
				case 3:
					r.PayloadRTT = fuzzRTT(rng, sp)
				}
				got[i].Add(&r)
				want[i].add(&r)
			case k < 7:
				sk := probe.PeerSketch{Src: src, Dst: dst, MinStart: at, MaxStart: at,
					RTT: metrics.NewLatencyHistogram(), Payload: metrics.NewLatencyHistogram()}
				for n := rng.Intn(200) + 1; n > 0; n-- {
					r := probe.Record{Start: at, Src: src, Dst: dst, RTT: fuzzRTT(rng, sp)}
					if r.RTT >= rtt3sLow {
						r.RTT = time.Second // the agent ships retransmit-signature RTTs raw
					}
					if rng.Intn(4) == 0 {
						r.PayloadRTT = fuzzRTT(rng, sp)
					}
					sk.RTT.Observe(r.RTT)
					if r.PayloadRTT > 0 {
						sk.Payload.Observe(r.PayloadRTT)
					}
					want[i].add(&r)
				}
				wire := decodeOneSketch(t, sk)
				got[i].AddSketch(&wire)
			case k < 9:
				if i != j {
					got[i].Merge(got[j])
					want[i].merge(want[j])
				}
			default:
				got[i], want[i] = got[j].Clone(), want[j].clone()
			}
		}
		for i := range got {
			want[i].checkAgainst(t, "slot", got[i])
		}
	})
}

// TestCompactForms pins which form an aggregate is in and what it costs: a
// few dozen distinct buckets stay sparse and under 1 KB, the payload
// histogram exists only once a payload RTT was seen, promotion happens past
// the threshold and not before, and the tallies-only form never allocates a
// histogram.
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
	if s.h != nil {
		t.Fatal("a failed probe allocated histograms")
	}
	for b := 1; b <= sparseMaxRuns; b++ {
		add(s, b, false)
		add(s, b, false)
	}
	if s.h.dense != nil || s.h.payload != nil || len(s.h.rtt.runs) != sparseMaxRuns {
		t.Fatalf("%d distinct buckets without payload: dense %v, payload %v, %d runs",
			sparseMaxRuns, s.h.dense != nil, s.h.payload != nil, len(s.h.rtt.runs))
	}
	add(s, sparseMaxRuns+1, true)
	if s.h.dense == nil || s.h.payload == nil || s.h.rtt.runs != nil {
		t.Fatalf("one bucket past the threshold, with payload: dense %v, payload %v, %d runs left",
			s.h.dense != nil, s.h.payload != nil, len(s.h.rtt.runs))
	}
	if got := s.Summary().Count; got != 2*sparseMaxRuns+1 {
		t.Fatalf("promotion kept %d of %d observations", got, 2*sparseMaxRuns+1)
	}

	ta := NewTallies()
	add(ta, 40, true)
	ta.Merge(s)
	if ta.h != nil || ta.Total() != s.Total()+1 {
		t.Fatalf("tallies-only aggregate: histograms %v, total %d", ta.h != nil, ta.Total())
	}

	// A bucket count past what a run can hold promotes too, and stays exact.
	big, ref := NewLatencyStats(), metrics.NewLatencyHistogram()
	sk := probe.PeerSketch{Src: failed.Src, Dst: failed.Dst, MinStart: at, MaxStart: at,
		RTT: metrics.NewLatencyHistogram(), Payload: metrics.NewLatencyHistogram()}
	sk.RTT.AddBucket(50, 1<<47)
	sk.RTT.AddTallies(1<<50, 10_000, 11_000)
	wire := decodeOneSketch(t, sk)
	for i := 0; i < 2<<(runCountBits-47); i++ {
		big.AddSketch(&wire)
		big.Merge(big.Clone())
		wire.RTT.AddTo(ref)
		ref.Merge(ref.Clone())
		if big.Summary() != ref.Summarize() {
			t.Fatalf("after %d huge sketches: %v, want %v", i+1, big.Summary(), ref.Summarize())
		}
	}
	if big.h.dense == nil {
		t.Fatal("a run count past its limit did not promote")
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
