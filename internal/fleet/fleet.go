// Package fleet drives a whole simulated Pingmesh deployment at
// experiment speed: it takes the controller-generated pinglists and
// executes every probe the fleet's agents would launch over a time window
// against the network simulator, without paying for per-agent goroutines
// and virtual-clock scheduling. It probes what and when an agent would, by
// the agent's own agent.Schedule, so consecutive runs tile. The rest of the
// agent stack runs over SimProber, the agent.Prober this package puts on
// the simulator, in the integration tests; the fleet runner is how day-
// and week-long experiments finish in seconds.
package fleet

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/netsim"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// Runner executes the probing schedule of a set of pinglists.
type Runner struct {
	// Net is the simulated network.
	Net *netsim.Network
	// Lists holds each server's pinglist (the controller's output).
	Lists map[topology.ServerID]*pinglist.File
	// Seed makes the simulated RTTs and source ports reproducible.
	Seed uint64
	// Workers bounds parallelism. Default NumCPU.
	Workers int
}

// flushAt is the record batch size handed to sinks.
const flushAt = 4096

// serverRun is one server's run state, pooled: the schedule is rebuilt in
// place, and day-scale windows flush thousands of batches — reallocating
// 4096-record slices dominated the runner's allocation profile.
type serverRun struct {
	sched agent.Schedule
	batch []probe.Record
}

var runPool = sync.Pool{
	New: func() any { return &serverRun{batch: make([]probe.Record, 0, flushAt)} },
}

// Run simulates every probe scheduled in [from, to) and hands each
// server's records to sink, one probe.Window grid window at a time: a batch
// never spans two grid windows. sink is called once per (server, batch) from
// multiple goroutines; it must be safe for concurrent use. The record slice
// is pooled: it is reused as soon as sink returns, so sinks must copy any
// data they keep (aggregating or encoding in place is fine).
//
// When several servers' schedules fail, the error reported is the one
// from the lowest server ID, independent of worker scheduling.
func (r *Runner) Run(from, to time.Time, sink func(src topology.ServerID, recs []probe.Record)) error {
	if r.Net == nil || len(r.Lists) == 0 {
		return fmt.Errorf("fleet: runner needs a network and pinglists")
	}
	if !to.After(from) {
		return fmt.Errorf("fleet: empty window [%v, %v)", from, to)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	ids := make([]topology.ServerID, 0, len(r.Lists))
	for id := range r.Lists {
		ids = append(ids, id)
	}
	// Deterministic order for deterministic per-server seeds.
	slices.Sort(ids)

	idxCh := make(chan int)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				errs[i] = r.runServer(ids[i], from, to, sink)
			}
		}()
	}
	for i := range ids {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	// errs is indexed by the sorted server order, so the reported error
	// is deterministic no matter which worker ran the failing server.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runServer executes one server's schedule for the window.
func (r *Runner) runServer(src topology.ServerID, from, to time.Time, sink func(topology.ServerID, []probe.Record)) error {
	top := r.Net.Topology()
	rng := rand.New(rand.NewPCG(r.Seed^uint64(src), uint64(src)*0x9e3779b97f4a7c15+1))
	srcAddr := top.Server(src).Addr
	port := uint16(32768 + rng.IntN(1000))

	run := runPool.Get().(*serverRun)
	sched, batch := &run.sched, run.batch[:0]
	defer func() {
		run.batch = batch[:0]
		runPool.Put(run)
	}()
	if err := sched.Reset(srcAddr, r.Lists[src]); err != nil {
		return err
	}
	var res netsim.Result
	for w, end := from, from; w.Before(to); w = end {
		// [w, end) is the part of one grid window inside [from, to).
		end = w.Add(time.Duration((probe.WindowIndex(w, probe.Window)+1)*int64(probe.Window) - w.UnixNano()))
		if end.After(to) {
			end = to
		}
		for i := range sched.Len() {
			t, every := sched.Peer(i)
			dst, ok := top.ServerByAddr(t.Addr)
			if !ok {
				continue // VIP targets have no simulated endpoint
			}
			// Hoisted out of the probe loop: the probe plan (prober), the
			// spec and the record template.
			prober := r.Net.PairProber(src, dst)
			spec := netsim.ProbeSpec{Src: src, Dst: dst, DstPort: t.Port, Proto: t.Proto, QoS: t.QoS, PayloadLen: t.PayloadLen}
			rec := probe.Record{Src: srcAddr, Dst: t.Addr, DstPort: t.Port, Class: t.Class, Proto: t.Proto, QoS: t.QoS, PayloadLen: t.PayloadLen}
			for at := sched.At(i, w); at.Before(end); at = at.Add(every) {
				// A new source port per probe (§3.4.1).
				port++
				if port < 32768 {
					port = 32768
				}
				spec.SrcPort, spec.Start = port, at
				// Servers in a downed podset do not probe at all (they are
				// off); their outbound records must not exist, which is what
				// produces the white rows of Figure 8(b). ProbeScheduled
				// reports that without simulating anything.
				if !prober.ProbeScheduled(&spec, rng, &res) {
					continue
				}
				rec.Start, rec.SrcPort = at, port
				rec.RTT, rec.PayloadRTT, rec.Err = res.RTT, res.PayloadRTT, res.Err
				batch = append(batch, rec)
				if len(batch) >= flushAt {
					sink(src, batch)
					batch = batch[:0]
				}
			}
		}
		if len(batch) > 0 {
			sink(src, batch)
			batch = batch[:0]
		}
	}
	return nil
}
