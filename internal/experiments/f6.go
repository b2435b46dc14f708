package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"pingmesh"
	"pingmesh/internal/core"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

// Figure6Result tracks the daily black-hole detection loop: once the
// detector plus auto-repair turns on, the backlog of black-holed ToRs
// drains (at most 20 reloads/day) until only the daily arrival rate
// remains (Figure 6).
type Figure6Result struct {
	Days []DayPoint
}

// DayPoint is one day of the loop.
type DayPoint struct {
	Day      int
	Detected int // candidates flagged by the detector
	Reloaded int // repairs executed (budget-capped)
	Faulty   int // ToRs still black-holed at end of day
}

// Figure6Config scales the experiment.
type Figure6Config struct {
	Days           int     // default 25
	InitialBadToRs int     // backlog when detection turns on; default 24
	DailyArrivals  float64 // expected new black-holes per day; default 1.5
	MatchFraction  float64 // corrupt TCAM coverage per black-hole; default 0.35
}

func (c *Figure6Config) withDefaults() Figure6Config {
	out := *c
	if out.Days <= 0 {
		out.Days = 25
	}
	if out.InitialBadToRs <= 0 {
		out.InitialBadToRs = 24
	}
	if out.DailyArrivals <= 0 {
		out.DailyArrivals = 1.5
	}
	if out.MatchFraction <= 0 {
		out.MatchFraction = 0.35
	}
	return out
}

// Figure6 runs the detection + auto-repair loop day by day: each day's
// arrivals are injected at midnight, the fleet probes until every pair the
// detector judges holds its 4 probes
// (diagnosis.MinPairProbes; an inter-pod pair is probed
// every 30 s), the clock moves on to the day's end, and the daily job's
// detection is handed to the testbed's repair service.
func Figure6(opts Options, cfg Figure6Config) (*Figure6Result, error) {
	c := cfg.withDefaults()
	var det diagnosis.BlackholeDetection
	tb, err := pingmesh.NewSimTestbed(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 10, PodsPerPodset: 10, ServersPerPod: 4, LeavesPerPodset: 4, Spines: 16},
	}}, pingmesh.SimOptions{
		Profiles:    []netsim.Profile{netsim.DC3Profile()},
		Seed:        opts.seed(),
		OnDetection: func(d diagnosis.BlackholeDetection) { det = d },
	})
	if err != nil {
		return nil, err
	}
	rs := tb.NewRepairService()
	rng := rand.New(rand.NewPCG(opts.seed(), 0xb1ac))
	tors := tb.Top.ToRs(0)

	injectOne := func() {
		tor := tors[rng.IntN(len(tors))]
		tb.Net.AddBlackhole(tor, netsim.Blackhole{MatchFraction: c.MatchFraction, IncludePorts: rng.IntN(2) == 0})
	}
	for i := 0; i < c.InitialBadToRs; i++ {
		injectOne()
	}

	span := diagnosis.MinPairProbes * core.DefaultGeneratorConfig().IntraDCInterval
	res := &Figure6Result{}
	for day := 0; day < c.Days; day++ {
		// New black-holes keep appearing in the background.
		arrivals := poisson(rng, c.DailyArrivals)
		for i := 0; i < arrivals; i++ {
			injectOne()
		}
		if err := probeCycle(tb, span, 24*time.Hour, tb.Pipeline.RunDaily); err != nil {
			return nil, err
		}
		reloaded := diagnosis.RepairBlackholes(det, tb.Top, rs)
		res.Days = append(res.Days, DayPoint{
			Day:      day,
			Detected: len(det.Candidates),
			Reloaded: reloaded,
			Faulty:   len(tb.Net.FaultySwitches()),
		})
	}
	return res, nil
}

func poisson(rng *rand.Rand, lambda float64) int {
	// Knuth's algorithm; lambda is small here.
	threshold := math.Exp(-lambda)
	l := 1.0
	for k := 0; ; k++ {
		l *= rng.Float64()
		if l < threshold {
			return k
		}
	}
}

// Report renders the Figure 6 comparison.
func (r *Figure6Result) Report() Report {
	rep := Report{
		ID:    "Figure 6",
		Title: "ToR switches with packet black-holes detected per day",
		Notes: []string{
			"paper: detections decay once auto-repair (<=20 reloads/day) turns on,",
			"settling at the daily arrival rate of new black-holes",
		},
	}
	for _, d := range r.Days {
		if d.Day%5 == 0 || d.Day == len(r.Days)-1 {
			rep.Rows = append(rep.Rows, Row{
				fmt.Sprintf("day %02d", d.Day),
				"decaying",
				fmt.Sprintf("detected=%d reloaded=%d faulty=%d", d.Detected, d.Reloaded, d.Faulty),
			})
		}
	}
	return rep
}
