package experiments

import (
	"fmt"
	"time"

	"pingmesh"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/topology"
)

// Figure7Result replays the Spine silent-random-drop incident of §5.2:
// a service's drop rate jumps from its 1e-4..1e-5 baseline to ~2e-3, the
// localizer pins the faulty Spine via traceroute, isolation restores the
// baseline, and the fault — being hardware — survives a reload and needs
// RMA.
type Figure7Result struct {
	// Windows is the drop-rate time series across the incident.
	Windows []WindowPoint
	// SuspectName is the switch the localizer blamed.
	SuspectName string
	// Correct reports whether the blamed switch is the injected one.
	Correct bool
	// ReloadFixed reports whether a reload cleared the fault (the paper:
	// it does not; bit flips in the fabric module need RMA).
	ReloadFixed bool
}

// WindowPoint is one point of the series: one or more whole windows.
type WindowPoint struct {
	Window   int
	Phase    string // "baseline", "incident", "isolated"
	DropRate float64
}

// Figure7 runs the incident end to end. Each point is the drop rate of the
// DC's inter-pod probes over whole windows, enough to hold the point's
// budget, read with one ad-hoc job over the store keyed by point; the suspect
// is what the testbed's §5.2 workflow (LocalizeSilentDrops) blames from the
// incident's stored probes.
func Figure7(opts Options) (*Figure7Result, error) {
	tb, err := pingmesh.NewSimTestbed(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
	}}, pingmesh.SimOptions{Profiles: []netsim.Profile{netsim.DC1Profile()}, Seed: opts.seed()})
	if err != nil {
		return nil, err
	}
	perPoint := max(opts.probes(2_700_000)/18, 20000)
	span := time.Duration(spansFor(perPoint, probesPer(tb, probe.Window, 0, probe.IntraDC))) * probe.Window
	spine := tb.Top.DCs[0].Spines[3]
	const points = 6 // per phase
	start := tb.Clock.Now()

	// Baseline, then the Spine starts flipping bits in its fabric module.
	res := &Figure7Result{}
	if err := tb.RunWindow(points * span); err != nil {
		return nil, err
	}
	tb.Net.SetRandomDrop(spine, 0.015, true)
	from := tb.Clock.Now()
	if err := tb.RunWindow(points * span); err != nil {
		return nil, err
	}

	// Localize: the pairs whose stored drop estimate is elevated, traced
	// hop by hop.
	suspects, err := tb.LocalizeSilentDrops(from, tb.Clock.Now())
	if err != nil {
		return nil, err
	}
	if len(suspects) > 0 {
		res.SuspectName = tb.Top.Switch(suspects[0].Switch).Name
		res.Correct = suspects[0].Switch == spine

		// Mitigate: isolate from live traffic (§5.2).
		tb.Net.IsolateSwitch(suspects[0].Switch)
	}
	if err := tb.RunWindow(points * span); err != nil {
		return nil, err
	}

	// A reload cannot fix hardware: the fault persists until RMA.
	tb.Net.ReloadSwitch(spine)
	res.ReloadFixed = !tb.Net.SwitchFaulty(spine)
	tb.Net.ReplaceSwitch(spine)

	// The series: a point's sketches never straddle its windows.
	st, err := scope.Run(scope.Job{
		Name:   "figure7",
		Source: scope.Source{Store: tb.Store, StreamPrefix: "pingmesh"},
		From:   start, To: tb.Clock.Now(),
		Where: func(r *probe.Record) bool { return r.Class == probe.IntraDC && r.PayloadLen == 0 },
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
			return append(dst, byte(r.Start.Sub(start)/span)), true
		},
		TalliesOnly: true,
	})
	if err != nil {
		return nil, err
	}
	for i, phase := range []string{"baseline", "incident", "isolated"} {
		for j := 0; j < points; j++ {
			w := i*points + j
			res.Windows = append(res.Windows, WindowPoint{Window: w, Phase: phase, DropRate: st.Get(string([]byte{byte(w)})).DropRate()})
		}
	}
	return res, nil
}

// Phase returns the mean drop rate of one phase.
func (r *Figure7Result) Phase(name string) float64 {
	var sum float64
	var n int
	for _, w := range r.Windows {
		if w.Phase == name {
			sum += w.DropRate
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Report renders the Figure 7 comparison.
func (r *Figure7Result) Report() Report {
	return Report{
		ID:    "Figure 7",
		Title: "Silent random packet drops of a Spine switch",
		Rows: []Row{
			{"baseline drop rate", "1e-4..1e-5", fmt.Sprintf("%.1e", r.Phase("baseline"))},
			{"incident drop rate", "~2e-3", fmt.Sprintf("%.1e", r.Phase("incident"))},
			{"after isolation", "back to baseline", fmt.Sprintf("%.1e", r.Phase("isolated"))},
			{"localized switch", "one Spine (traceroute)", fmt.Sprintf("%s correct=%v", r.SuspectName, r.Correct)},
			{"fixed by reload", "no (RMA required)", fmt.Sprintf("%v", r.ReloadFixed)},
		},
	}
}
