package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/core"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netsim"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// Figure3Result reports the resource footprint of one agent probing
// thousands of peers, the Go analog of Figure 3's C++ agent measurement.
type Figure3Result struct {
	Peers     int
	Simulated time.Duration
	// Probes is what the agent recorded; Due is what its schedule had due
	// over Simulated. Figure3 fails unless they are equal.
	Probes int64
	Due    int64
	// CPUPercent is CPU seconds consumed per simulated second, times 100:
	// the sim-time analog of the paper's 0.26% on a 16-core server.
	CPUPercent float64
	// PeakHeapMB is the peak Go heap during the run; the paper's agent
	// stayed under 45MB resident.
	PeakHeapMB float64
}

// Figure3 runs a full Pingmesh Agent (scheduler, safety rails, counters)
// against ~2500 simulated peers for several simulated minutes and measures
// its CPU and memory cost.
func Figure3(opts Options) (*Figure3Result, error) {
	// 2500 single-server racks: the pinglist's ToR-level complete graph
	// then contains ~2499 peers, matching the paper's "actively probing
	// around 2500 servers".
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "BIG", Podsets: 50, PodsPerPodset: 50, ServersPerPod: 1, LeavesPerPodset: 2, Spines: 8},
	}})
	if err != nil {
		return nil, err
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC2Profile()}})
	if err != nil {
		return nil, err
	}
	clock := simclock.NewSim(time.Unix(1751328000, 0).UTC())
	self := topology.ServerID(0)
	// Only this agent's pinglist is needed; generating the whole fleet's
	// lists would dominate the memory measurement.
	lists, err := core.GenerateSubset(top, core.DefaultGeneratorConfig(), "v1", clock.Now(), []topology.ServerID{self})
	if err != nil {
		return nil, err
	}
	list := lists[self]

	a, err := agent.New(agent.Config{
		ServerName: top.Server(self).Name,
		SourceAddr: top.Server(self).Addr,
		Controller: staticFetcher{list},
		Prober:     &fleet.SimProber{Net: net, Src: self, Clock: clock, Seed: opts.seed()},
		Clock:      clock,
	})
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		a.Run(ctx)
		close(done)
	}()
	waitCond(func() bool { return a.PeerCount() > 0 })

	var before syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		return nil, fmt.Errorf("experiments: rusage: %w", err)
	}

	simulated := 6 * time.Minute
	if opts.Probes > 0 {
		// Probes scales the simulated duration for quick runs: ~peers/30s
		// probes per second of simulated time.
		simulated = time.Duration(opts.Probes) * 30 * time.Second / time.Duration(a.PeerCount())
		if simulated < 30*time.Second {
			simulated = 30 * time.Second
		}
	}
	step := 10 * time.Second
	simulated = (simulated + step - 1).Truncate(step) // the span the clock moves, in whole steps

	// HeapAlloc counts unswept garbage too: collect what earlier work in
	// this process left behind, or it is billed to the agent.
	runtime.GC()
	var peakHeap atomic.Uint64
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peakHeap.Load()
			if ms.HeapAlloc <= cur || peakHeap.CompareAndSwap(cur, ms.HeapAlloc) {
				break
			}
		}
	}
	// A twin of the agent's schedule, popped at each time the agent's is,
	// says how many probes are due. Before each advance Figure3 waits
	// for all of them and for the agent's three loops to re-arm their
	// timers (schedule, fetch, upload), so the agent runs its whole
	// schedule and every run at one seed probes the same times.
	var twin agent.Schedule
	if err := twin.Reset(top.Server(self).Addr, list); err != nil {
		return nil, err
	}
	twin.Start(clock.Now(), new(agent.Schedule))
	var due int64
	popDue := func() {
		for _, _, ok := twin.Pop(clock.Now()); ok; _, _, ok = twin.Pop(clock.Now()) {
			due++
		}
	}
	recorded := a.Metrics().Counter("agent.probes_total")
	settled := func() bool { return recorded.Value() == due && clock.PendingTimers() >= 3 }
	for elapsed := time.Duration(0); ; elapsed += step {
		popDue()
		if !waitCond(settled) {
			return nil, fmt.Errorf("experiments: figure 3: the agent recorded %d of the %d probes due by %v", recorded.Value(), due, elapsed)
		}
		sampleHeap()
		if elapsed >= simulated {
			break
		}
		clock.Advance(step)
	}

	var after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		return nil, fmt.Errorf("experiments: rusage: %w", err)
	}
	cancel()
	<-done

	cpu := rusageSeconds(after) - rusageSeconds(before)
	return &Figure3Result{
		Peers:      a.PeerCount(),
		Simulated:  simulated,
		Probes:     recorded.Value(),
		Due:        due,
		CPUPercent: cpu / simulated.Seconds() * 100,
		PeakHeapMB: float64(peakHeap.Load()) / (1 << 20),
	}, nil
}

func rusageSeconds(r syscall.Rusage) float64 {
	return float64(r.Utime.Sec) + float64(r.Utime.Usec)/1e6 +
		float64(r.Stime.Sec) + float64(r.Stime.Usec)/1e6
}

// waitCond polls cond for up to 30 s of wall time and reports whether it
// came true.
func waitCond(cond func() bool) bool {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// staticFetcher hands the agent a fixed pinglist, standing in for the
// controller in the overhead measurement.
type staticFetcher struct{ f *pinglist.File }

func (s staticFetcher) Fetch(ctx context.Context, server string) (*pinglist.File, error) {
	return s.f, nil
}

// Report renders the Figure 3 comparison.
func (r *Figure3Result) Report() Report {
	return Report{
		ID:    "Figure 3",
		Title: "Pingmesh Agent CPU and memory usage",
		Rows: []Row{
			{"peers probed", "~2500", fmt.Sprintf("%d", r.Peers)},
			{"avg CPU", "0.26% (16 cores)", fmt.Sprintf("%.2f%% (per simulated s)", r.CPUPercent)},
			{"memory", "<45MB", fmt.Sprintf("%.1fMB peak heap", r.PeakHeapMB)},
		},
		Notes: []string{
			fmt.Sprintf("%d probes over %v simulated", r.Probes, r.Simulated),
			"probe I/O is simulated, so CPU covers scheduling, bookkeeping and the network model",
		},
	}
}
