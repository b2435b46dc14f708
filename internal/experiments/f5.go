package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pingmesh"
	"pingmesh/internal/dsa"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/topology"
)

// Figure5Result is one week of a service's network SLA metrics: the P99
// latency and drop rate Pingmesh exports as perf counters per service
// (§4.3, Figure 5).
type Figure5Result struct {
	Hours []HourPoint
}

// HourPoint is one hour's metrics.
type HourPoint struct {
	Hour     int
	P99      time.Duration
	DropRate float64
}

// SyncPeriodHours is the cadence of the service's high-throughput data
// sync, which periodically lifts its P99 (the sawtooth in Figure 5).
const SyncPeriodHours = 12

// Figure5 replays one normal week for a service: no incidents, just the
// periodic load bump from the service's own data sync. The service is the
// DC's intra-DC SYN probes, and each hour's point is its dc/ SLA row, which
// the 10-minute job publishes over the hour: the fleet probes whole minutes
// at the hour's start until the hour holds the budget, and the clock moves on
// to the hour's end.
func Figure5(opts Options) (*Figure5Result, error) {
	start := time.Date(2026, 6, 22, 0, 0, 0, 0, time.UTC) // a Monday
	prof := netsim.DC2Profile()
	prof.Load = func(t time.Time) float64 {
		h := t.Sub(start).Hours()
		if math.Mod(h, SyncPeriodHours) < 1 {
			return 6 // data-sync hour: queues deepen
		}
		return 1
	}
	tb, err := pingmesh.NewSimTestbed(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC2", Podsets: 2, PodsPerPodset: 4, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
	}}, pingmesh.SimOptions{Profiles: []netsim.Profile{prof}, Seed: opts.seed(), Start: start})
	if err != nil {
		return nil, err
	}
	perHour := max(opts.probes(3_400_000)/(7*24), 2000)
	w := spansFor(perHour, probesPer(tb, time.Minute, 0, probe.IntraPod)+probesPer(tb, time.Minute, 0, probe.IntraDC))
	span := min(time.Duration(w)*time.Minute, time.Hour)
	for hour := 0; hour < 7*24; hour++ {
		if err := probeCycle(tb, span, time.Hour, tb.Pipeline.RunTenMinute); err != nil {
			return nil, err
		}
	}
	rows, err := tb.DB().Query(dsa.TableSLA,
		reportdb.Where(func(r reportdb.Row) bool { return r["scope"] == "dc/DC2" }),
		reportdb.OrderBy("window_start"))
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{}
	for hour, r := range rows {
		res.Hours = append(res.Hours, HourPoint{
			Hour:     hour,
			P99:      r["p99"].(time.Duration),
			DropRate: r["drop_rate"].(float64),
		})
	}
	return res, nil
}

// SyncHours returns the indices of data-sync hours.
func (r *Figure5Result) SyncHours() []int {
	var out []int
	for _, h := range r.Hours {
		if h.Hour%SyncPeriodHours == 0 {
			out = append(out, h.Hour)
		}
	}
	return out
}

// BaselineP99 returns the median P99 across non-sync hours.
func (r *Figure5Result) BaselineP99() time.Duration { return r.medianP99(false) }

// SyncP99 returns the median P99 across sync hours.
func (r *Figure5Result) SyncP99() time.Duration { return r.medianP99(true) }

func (r *Figure5Result) medianP99(sync bool) time.Duration {
	var vals []time.Duration
	for _, h := range r.Hours {
		if (h.Hour%SyncPeriodHours == 0) == sync {
			vals = append(vals, h.P99)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}

// MeanDropRate averages the weekly drop rate.
func (r *Figure5Result) MeanDropRate() float64 {
	var sum float64
	for _, h := range r.Hours {
		sum += h.DropRate
	}
	return sum / float64(len(r.Hours))
}

// Report renders the Figure 5 comparison.
func (r *Figure5Result) Report() Report {
	return Report{
		ID:    "Figure 5",
		Title: "One normal week of a service's network SLA metrics",
		Rows: []Row{
			{"baseline P99", "500-560us", fmtDur(r.BaselineP99())},
			{"sync-hour P99", "periodic bumps", fmtDur(r.SyncP99())},
			{"drop rate", "~4e-05, flat", fmt.Sprintf("%.1e", r.MeanDropRate())},
		},
		Notes: []string{
			fmt.Sprintf("%d hourly points; data sync every %dh lifts P99 while drop rate stays flat", len(r.Hours), SyncPeriodHours),
		},
	}
}
