package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestDiagnosisLocatesBothFaults is the §5 accuracy table: for seeds 1–5 at
// 12 simulated minutes, and seed 1 at 6, both injected switches are the
// vote ranking's top two and each chain pins its switch. The probe and
// failure counts are EXPERIMENTS.md's, exactly.
func TestDiagnosisLocatesBothFaults(t *testing.T) {
	for _, tc := range []struct {
		minutes  int
		seeds    []uint64
		observed uint64
		failures []uint64
	}{
		{12, []uint64{1, 2, 3, 4, 5}, 23040, []uint64{2499, 2503, 2499, 2499, 2498}},
		{6, []uint64{1}, 11520, []uint64{1249}},
	} {
		res, err := Diagnosis(tc.minutes, tc.seeds...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Spine != "DC1-spine000" || res.ToR != "DC1-ps00-tor02" {
			t.Fatalf("injected %s and %s", res.Spine, res.ToR)
		}
		for i, run := range res.Runs {
			if run.Observed != tc.observed || run.Failures != tc.failures[i] {
				t.Errorf("%d min seed %d: observed=%d failures=%d, want %d and %d",
					tc.minutes, run.Seed, run.Observed, run.Failures, tc.observed, tc.failures[i])
			}
			if want := []string{res.ToR, res.Spine}; len(run.Ranking) < 2 || !slices.Equal(run.Ranking[:2], want) || !run.TopTwoHit {
				t.Errorf("%d min seed %d: ranking %v, want top two %v", tc.minutes, run.Seed, run.Ranking, want)
			}
			if run.Chains[0].PinnedHop != res.Spine || run.Chains[1].PinnedHop != res.ToR || !run.ChainsHit {
				t.Errorf("%d min seed %d: chains do not pin %s and %s", tc.minutes, run.Seed, res.Spine, res.ToR)
			}
		}
		if rep := res.Report(); len(rep.Rows) != len(tc.seeds) || strings.Contains(rep.String(), "✗") {
			t.Fatalf("report:\n%s", rep.String())
		}
	}
}
