// Package fleet drives a whole simulated Pingmesh deployment at
// experiment speed: it takes the controller-generated pinglists and
// executes every probe the fleet's agents would launch over a time window
// against the network simulator, without paying for per-agent goroutines
// and virtual-clock scheduling. The full agent stack (fetch loops, safety
// rails, uploads) is exercised separately by the agent package and the
// integration tests; the fleet runner is how day- and week-long
// experiments finish in seconds.
package fleet

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"pingmesh/internal/analysis"
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
	// Seed makes runs reproducible.
	Seed uint64
	// Workers bounds parallelism. Default NumCPU.
	Workers int
	// IntervalScale stretches every peer's probing interval; >1 thins the
	// probe schedule for quick runs, <1 densifies it for tail resolution.
	// Default 1.
	IntervalScale float64
}

// flushAt is the record batch size handed to sinks.
const flushAt = 4096

// batchPool recycles record batches across servers and runs: day-scale
// windows flush thousands of batches, and reallocating 4096-record
// slices dominated the runner's allocation profile.
var batchPool = sync.Pool{
	New: func() any {
		s := make([]probe.Record, 0, flushAt)
		return &s
	},
}

// Run simulates every probe scheduled in [from, to) and hands each
// server's records to sink. sink is called once per (server, batch) from
// multiple goroutines; it must be safe for concurrent use. The record
// slice is pooled: it is reused as soon as sink returns, so sinks must
// copy any data they keep (aggregating or encoding in place is fine).
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
	scale := r.IntervalScale
	if scale <= 0 {
		scale = 1
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
				errs[i] = r.runServer(ids[i], from, to, scale, sink)
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
func (r *Runner) runServer(src topology.ServerID, from, to time.Time, scale float64, sink func(topology.ServerID, []probe.Record)) error {
	top := r.Net.Topology()
	list := r.Lists[src]
	rng := rand.New(rand.NewPCG(r.Seed^uint64(src), uint64(src)*0x9e3779b97f4a7c15+1))
	srcAddr := top.Server(src).Addr
	port := uint16(32768 + rng.IntN(1000))

	batchp := batchPool.Get().(*[]probe.Record)
	batch := (*batchp)[:0]
	defer func() {
		*batchp = batch[:0]
		batchPool.Put(batchp)
	}()
	for pi := range list.Peers {
		p := &list.Peers[pi]
		dst, ok := top.ServerByAddrString(p.Addr)
		if !ok {
			continue // VIP targets have no simulated endpoint
		}
		cls, err := p.ParsedClass()
		if err != nil {
			return err
		}
		proto, _ := p.ParsedProto()
		qos, _ := p.ParsedQoS()
		every := time.Duration(float64(p.Interval()) * scale)
		if every <= 0 {
			every = time.Second
		}
		// Everything invariant across the peer's schedule is hoisted out
		// of the probe loop: the probe plan (prober), the spec and the
		// record template.
		prober := r.Net.PairProber(src, dst)
		spec := netsim.ProbeSpec{
			Src: src, Dst: dst,
			DstPort: p.Port,
			Proto:   proto, QoS: qos,
			PayloadLen: p.PayloadLen,
		}
		rec := probe.Record{
			Src:        srcAddr,
			Dst:        top.Server(dst).Addr,
			DstPort:    p.Port,
			Class:      cls,
			Proto:      proto,
			QoS:        qos,
			PayloadLen: p.PayloadLen,
		}
		// Spread each peer's schedule with a stable phase so fleet-wide
		// probes do not synchronize.
		phase := time.Duration(rng.Int64N(int64(every)))
		var res netsim.Result
		for t := from.Add(phase); t.Before(to); t = t.Add(every) {
			// A new source port per probe (§3.4.1).
			port++
			if port < 32768 {
				port = 32768
			}
			spec.SrcPort, spec.Start = port, t
			// Servers in a downed podset do not probe at all (they are
			// off); their outbound records must not exist, which is what
			// produces the white rows of Figure 8(b). ProbeScheduled
			// reports that without simulating anything.
			if !prober.ProbeScheduled(&spec, rng, &res) {
				continue
			}
			rec.Start, rec.SrcPort = t, port
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
	}
	return nil
}

// StatsCollector is a sink that aggregates records into LatencyStats
// groups on the fly, so day-scale runs never materialize raw records.
type StatsCollector struct {
	key    func(dst []byte, r *probe.Record) ([]byte, bool)
	mu     sync.Mutex
	groups map[string]*analysis.LatencyStats
	keyBuf []byte
}

// NewStatsCollector builds a collector grouping by key, which has the
// scope.Job.KeyBytes form; a nil key groups everything under "".
func NewStatsCollector(key func(dst []byte, r *probe.Record) ([]byte, bool)) *StatsCollector {
	return &StatsCollector{key: key, groups: map[string]*analysis.LatencyStats{}}
}

// Sink is the fleet.Runner sink. It does not retain the record slice.
func (c *StatsCollector) Sink(_ topology.ServerID, recs []probe.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Consecutive records usually come from the same peer and land in
	// the same group; memoize the last lookup.
	var st *analysis.LatencyStats
	var last string
	for i := range recs {
		k := c.keyBuf[:0]
		if c.key != nil {
			var ok bool
			if k, ok = c.key(k, &recs[i]); !ok {
				continue
			}
			c.keyBuf = k[:0]
		}
		if st == nil || string(k) != last {
			last = string(k)
			if st = c.groups[last]; st == nil {
				st = analysis.NewLatencyStats()
				c.groups[last] = st
			}
		}
		st.Add(&recs[i])
	}
}

// Groups returns the aggregates. The collector must not be used after.
func (c *StatsCollector) Groups() map[string]*analysis.LatencyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups
}

// NewRecordCollector returns a sink that appends every record to a shared
// slice (for small runs and tests).
func NewRecordCollector() (*[]probe.Record, func(topology.ServerID, []probe.Record)) {
	var mu sync.Mutex
	out := &[]probe.Record{}
	return out, func(_ topology.ServerID, recs []probe.Record) {
		mu.Lock()
		*out = append(*out, recs...)
		mu.Unlock()
	}
}
