package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The experiment tests run with reduced probe budgets: they assert the
// qualitative shapes the paper reports, not the absolute numbers (those
// need the full budgets of the benchmark harness).

func TestFigure4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution experiment")
	}
	r, err := Figure4(Options{Probes: 400_000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// (a): at and below P90, loaded DC1 is comparable to DC2 (within 2x).
	if r.DC1Inter.P50 > 2*r.DC2Inter.P50 {
		t.Fatalf("DC1 P50 %v >> DC2 P50 %v", r.DC1Inter.P50, r.DC2Inter.P50)
	}
	// (b): DC1's extreme tail is far heavier than DC2's.
	if r.DC1Inter.P9999 < 2*r.DC2Inter.P9999 {
		t.Fatalf("DC1 P99.99 %v not >> DC2 P99.99 %v", r.DC1Inter.P9999, r.DC2Inter.P9999)
	}
	// Four-9s sub-millisecond latency is unattainable (paper's claim).
	if r.DC1Inter.P9999 < time.Millisecond || r.DC2Inter.P9999 < time.Millisecond {
		t.Fatalf("P99.99 below 1ms: DC1=%v DC2=%v", r.DC1Inter.P9999, r.DC2Inter.P9999)
	}
	// (c): intra-pod is faster than inter-pod by tens of µs at the median.
	gap := r.DC1Inter.P50 - r.DC1Intra.P50
	if gap < 10*time.Microsecond || gap > 300*time.Microsecond {
		t.Fatalf("P50 gap = %v, want tens of µs", gap)
	}
	// (d): payload ping is slower than SYN ping at P50 and P99.
	if r.DC1Payload.P50 <= r.DC1SYN.P50 {
		t.Fatalf("payload P50 %v <= SYN P50 %v", r.DC1Payload.P50, r.DC1SYN.P50)
	}
	if r.DC1Payload.P99 <= r.DC1SYN.P99 {
		t.Fatalf("payload P99 %v <= SYN P99 %v", r.DC1Payload.P99, r.DC1SYN.P99)
	}
	// CDFs are present for plotting.
	if len(r.DC1InterCDF) == 0 || len(r.DC2InterCDF) == 0 {
		t.Fatal("missing CDFs")
	}
	// Reports render.
	for _, rep := range []Report{r.ReportA(), r.ReportB(), r.ReportC(), r.ReportD()} {
		rep := rep
		if !strings.Contains(rep.String(), "paper") {
			t.Fatalf("report broken:\n%s", rep.String())
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("drop-rate experiment")
	}
	r, err := Table1(Options{Probes: 600_000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.DCs) != 5 {
		t.Fatalf("%d DCs", len(r.DCs))
	}
	for _, dc := range r.DCs {
		// All rates within the paper's band (wide tolerance at this budget).
		if dc.InterPod < 1e-6 || dc.InterPod > 5e-4 {
			t.Errorf("%s inter-pod rate %g outside band", dc.Name, dc.InterPod)
		}
		if dc.IntraPod > dc.InterPod {
			t.Errorf("%s intra-pod %g > inter-pod %g", dc.Name, dc.IntraPod, dc.InterPod)
		}
	}
	rep := r.Report()
	if !strings.Contains(rep.String(), "DC5") {
		t.Fatal("report missing DC5")
	}
}

// TestFigure3RunsItsWholeSchedule: Figure3 waits for every probe the
// agent's schedule has due before it advances the clock, so two runs at one
// seed record the same probes, and as many as were due.
func TestFigure3RunsItsWholeSchedule(t *testing.T) {
	var probes [2]int64
	for i := range probes {
		r, err := Figure3(Options{Probes: 5_000, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if r.Probes != r.Due || r.Due == 0 {
			t.Fatalf("run %d recorded %d probes, %d due", i, r.Probes, r.Due)
		}
		probes[i] = r.Probes
	}
	if probes[0] != probes[1] {
		t.Fatalf("two runs at one seed recorded %d and %d probes", probes[0], probes[1])
	}
}

func TestFigure3AgentOverhead(t *testing.T) {
	r, err := Figure3(Options{Probes: 10_000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if r.Peers < 2000 {
		t.Fatalf("peers = %d, want ~2500", r.Peers)
	}
	if r.Probes == 0 {
		t.Fatal("agent did not probe")
	}
	// Bounded footprint: the Go agent must stay within the same order as
	// the paper's 45MB. Allow slack for the simulator sharing the heap.
	if r.PeakHeapMB > 200 {
		t.Fatalf("peak heap %.1fMB", r.PeakHeapMB)
	}
	if r.CPUPercent < 0 {
		t.Fatalf("CPU%% = %v", r.CPUPercent)
	}
	rep := r.Report()
	if !strings.Contains(rep.String(), "2500") {
		t.Fatal("report broken")
	}
}

func TestFigure5WeeklyPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long experiment")
	}
	r, err := Figure5(Options{Probes: 600_000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hours) != 168 {
		t.Fatalf("%d hourly points", len(r.Hours))
	}
	// The periodic data sync lifts P99 visibly above baseline.
	if r.SyncP99() < r.BaselineP99()*3/2 {
		t.Fatalf("sync P99 %v not clearly above baseline %v", r.SyncP99(), r.BaselineP99())
	}
	// Baseline P99 is sub-millisecond-ish and the drop rate stays in the
	// normal band all week (no incidents).
	if r.BaselineP99() > 3*time.Millisecond {
		t.Fatalf("baseline P99 = %v", r.BaselineP99())
	}
	if d := r.MeanDropRate(); d > 1e-3 {
		t.Fatalf("weekly drop rate %g looks like an incident", d)
	}
	if len(r.SyncHours()) != 14 {
		t.Fatalf("sync hours = %v", r.SyncHours())
	}
}

func TestFigure6Decay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day experiment")
	}
	r, err := Figure6(Options{Seed: 15}, Figure6Config{
		Days: 10, InitialBadToRs: 30, DailyArrivals: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := r.Days[0]
	last := r.Days[len(r.Days)-1]
	// Day 0 detects a big backlog; the budget caps reloads at 20.
	if first.Detected < 15 {
		t.Fatalf("day-0 detected = %d, want most of the 30 seeded", first.Detected)
	}
	if first.Reloaded > 20 {
		t.Fatalf("day-0 reloaded = %d, exceeds the cap", first.Reloaded)
	}
	// By the end, detections settle near the arrival rate.
	if last.Detected > 8 {
		t.Fatalf("day-%d detected = %d, backlog did not drain", last.Day, last.Detected)
	}
	if last.Detected >= first.Detected {
		t.Fatalf("no decay: first=%d last=%d", first.Detected, last.Detected)
	}
	rep := r.Report()
	if !strings.Contains(rep.String(), "day 0") {
		t.Fatal("report broken")
	}
}

func TestFigure7Incident(t *testing.T) {
	if testing.Short() {
		t.Skip("incident experiment")
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 16} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r, err := Figure7(Options{Probes: 720_000, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			base := r.Phase("baseline")
			incident := r.Phase("incident")
			isolated := r.Phase("isolated")
			if base > 5e-4 {
				t.Fatalf("baseline drop rate %g too high", base)
			}
			// The incident lifts the rate an order of magnitude (paper: to ~2e-3).
			if incident < base*5 || incident < 5e-4 {
				t.Fatalf("incident rate %g not clearly above baseline %g", incident, base)
			}
			if !r.Correct {
				t.Fatalf("localizer blamed %s", r.SuspectName)
			}
			if isolated > incident/3 {
				t.Fatalf("isolation did not recover: %g -> %g", incident, isolated)
			}
			if r.ReloadFixed {
				t.Fatal("reload fixed a hardware fault")
			}
			rep := r.Report()
			if !strings.Contains(rep.String(), "Spine") {
				t.Fatal("report broken")
			}
		})
	}
}

func TestFigure8Patterns(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet experiment")
	}
	r, err := Figure8(Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 4 {
		t.Fatalf("%d scenarios", len(r.Scenarios))
	}
	for _, s := range r.Scenarios {
		if s.Got.Pattern != s.Expected {
			t.Errorf("%s classified as %v (podset %d), want %v\n%s",
				s.Name, s.Got.Pattern, s.Got.Podset, s.Expected, s.ASCII)
		}
		if !strings.HasPrefix(s.SVG, "<svg") {
			t.Errorf("%s: no SVG", s.Name)
		}
	}
	// The podset scenarios identify the right podset.
	if r.Scenarios[1].Got.Podset != 1 || r.Scenarios[2].Got.Podset != 1 {
		t.Errorf("podset attribution wrong: %+v %+v", r.Scenarios[1].Got, r.Scenarios[2].Got)
	}
	rep := r.Report()
	if !strings.Contains(rep.String(), "spine-failure") {
		t.Fatal("report broken")
	}
}

func TestFanOut(t *testing.T) {
	if testing.Short() {
		t.Skip("large generation")
	}
	r, err := FanOut(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MinPeers < 2000 || r.MaxPeers > 5000 {
		t.Fatalf("fan-out %d-%d outside the paper's 2000-5000 band", r.MinPeers, r.MaxPeers)
	}
	rep := r.Report()
	if !strings.Contains(rep.String(), "2000-5000") {
		t.Fatal("report broken")
	}
}

func TestReportString(t *testing.T) {
	rep := Report{ID: "X", Title: "T", Rows: []Row{{"a", "b", "c"}}, Notes: []string{"n"}}
	s := rep.String()
	for _, want := range []string{"== X: T ==", "paper", "measured", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}
