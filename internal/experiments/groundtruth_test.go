package experiments

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"pingmesh/internal/analysis"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// Figure 4's distributions come through the whole pipeline — the agents'
// sketches, the PMB1 upload, the store, a scope fold — and must agree with
// the fabric's ground truth: measureDist sampling the same simulated network
// directly, over the pairs the pinglists give the agents, each probed as
// often, and as many probes per distribution. (Random pairs of the same kind
// would add the pair mix's own variance: a P50 spread of ±0.3 % across
// samples of 512.)
//
// The tolerance. Both sides are read from histograms with the same bucket
// edges (growth 1.05) and the same linear interpolation inside a bucket, and
// a sketch puts its probes in exactly the buckets Observe would have. The
// quantization error, up to one bucket (5 %) against the exact quantile, is
// therefore the same on both sides and cancels; a pipeline that moved every
// sketched probe one bucket up reads every quantile about 5 % high, which is
// what this test is for. What is left is sampling error: the empirical
// q-quantile of m probes sits at a rank whose standard error is
// sqrt(q(1-q)/m), and the difference of two independent samples has sqrt(2)
// times that. The pipeline's q-quantile must lie between the ground truth's
// quantiles at q ∓ 4 such errors.
func TestFigure4MatchesGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution experiment")
	}
	const n, seed = 200_000, 21
	tb, err := figure4Testbed(seed)
	if err != nil {
		t.Fatal(err)
	}
	dc1Inter, dc2Inter, dc1Intra, err := figure4Dists(tb, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name  string
		got   *analysis.LatencyStats
		dc    int
		class probe.Class
	}{
		{"DC1 inter-pod", dc1Inter, 0, probe.IntraDC},
		{"DC2 inter-pod", dc2Inter, 1, probe.IntraDC},
		{"DC1 intra-pod", dc1Intra, 0, probe.IntraPod},
	} {
		var pairs [][2]topology.ServerID
		for src, list := range tb.Pinglists() {
			for _, p := range list.Peers {
				if cls, _ := probe.ParseClass(p.Class); cls == c.class && tb.Top.Server(src).DC == c.dc {
					dst, _ := tb.Top.ServerByAddrString(p.Addr)
					pairs = append(pairs, [2]topology.ServerID{src, dst})
				}
			}
		}
		// Map order must not pick the probes' seeds.
		slices.SortFunc(pairs, func(a, b [2]topology.ServerID) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		truth := measureDist(tb.Net, pairs, n, 0, tb.Clock.Now(), seed+uint64(i), 2)
		m := float64(min(c.got.Success(), truth.Success()))
		for _, q := range []float64{0.5, 0.99} {
			d := 4 * math.Sqrt(2*q*(1-q)/m)
			lo, hi, got := truth.Percentile(q-d), truth.Percentile(q+d), c.got.Percentile(q)
			t.Logf("%s P%g: pipeline %v, ground truth %v, allowed [%v, %v]", c.name, q*100, got, truth.Percentile(q), lo, hi)
			if got < lo || got > hi {
				t.Errorf("%s P%g: pipeline reads %v, ground truth allows [%v, %v]", c.name, q*100, got, lo, hi)
			}
		}
	}
}
