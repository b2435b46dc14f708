package fleet

import (
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/analysis"
	"pingmesh/internal/core"
	"pingmesh/internal/netsim"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func testRig(t *testing.T) (*netsim.Network, map[topology.ServerID]*pinglist.File) {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		t.Fatal(err)
	}
	return n, lists
}

func TestRunProducesScheduledProbes(t *testing.T) {
	n, lists := testRig(t)
	recs, sink := NewRecordCollector()
	r := &Runner{Net: n, Lists: lists, Seed: 1}
	if err := r.Run(t0, t0.Add(10*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	// 12 servers; each has 2 intra-pod peers (10s interval -> 60 probes
	// each in 10min) and 3 intra-DC peers (30s -> 20 each): 180 probes per
	// server, give or take phase effects, plus inter-DC none (single DC).
	perServer := float64(len(*recs)) / 12
	if perServer < 140 || perServer > 220 {
		t.Fatalf("%d records (%.0f/server), want ~180/server", len(*recs), perServer)
	}
	// Records carry valid classes and fresh ports.
	ports := map[uint16]int{}
	for i := range *recs {
		rec := &(*recs)[i]
		if rec.Start.Before(t0) || !rec.Start.Before(t0.Add(10*time.Minute)) {
			t.Fatalf("record outside window: %v", rec.Start)
		}
		ports[rec.SrcPort]++
	}
	if len(ports) < 100 {
		t.Fatalf("only %d distinct source ports used", len(ports))
	}
}

func TestRunDeterministic(t *testing.T) {
	n, lists := testRig(t)
	run := func() int {
		recs, sink := NewRecordCollector()
		r := &Runner{Net: n, Lists: lists, Seed: 42, Workers: 4}
		if err := r.Run(t0, t0.Add(5*time.Minute), sink); err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := range *recs {
			total += int((*recs)[i].RTT / time.Microsecond)
		}
		return total
	}
	if run() != run() {
		t.Fatal("same seed produced different results")
	}
}

func TestRunEmptyWindowErrors(t *testing.T) {
	n, lists := testRig(t)
	r := &Runner{Net: n, Lists: lists}
	_, sink := NewRecordCollector()
	if err := r.Run(t0, t0, sink); err == nil {
		t.Fatal("empty window accepted")
	}
	if err := (&Runner{}).Run(t0, t0.Add(time.Minute), sink); err == nil {
		t.Fatal("runner without network accepted")
	}
}

func TestRunDownedPodsetProducesNoSourceRecords(t *testing.T) {
	n, lists := testRig(t)
	n.SetPodsetDown(0, 1, true)
	recs, sink := NewRecordCollector()
	r := &Runner{Net: n, Lists: lists, Seed: 3}
	if err := r.Run(t0, t0.Add(5*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	top := n.Topology()
	for i := range *recs {
		rec := &(*recs)[i]
		id, ok := top.ServerByAddr(rec.Src)
		if !ok {
			t.Fatal("unknown source")
		}
		if top.Server(id).Podset == 1 {
			t.Fatalf("downed server %v produced records", id)
		}
		// Probes TO the downed podset fail.
		did, _ := top.ServerByAddr(rec.Dst)
		if top.Server(did).Podset == 1 && rec.Success() {
			t.Fatalf("probe to downed podset succeeded: %+v", rec)
		}
	}
}

func TestStatsCollector(t *testing.T) {
	n, lists := testRig(t)
	top := n.Topology()
	keyer := &analysis.Keyer{Top: top}
	col := NewStatsCollector(keyer.AppendSrcDC)
	r := &Runner{Net: n, Lists: lists, Seed: 4}
	if err := r.Run(t0, t0.Add(5*time.Minute), col.Sink); err != nil {
		t.Fatal(err)
	}
	groups := col.Groups()
	if len(groups) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	if groups["DC1"].Total() == 0 {
		t.Fatal("no records aggregated")
	}
}

func TestStatsCollectorNilKey(t *testing.T) {
	col := NewStatsCollector(nil)
	col.Sink(0, []probe.Record{{RTT: time.Millisecond}})
	if col.Groups()[""].Total() != 1 {
		t.Fatal("nil-key grouping broken")
	}
}

// probeKey is what a schedule decides about a probe: when, and to which
// target. The source port and the outcome are the simulation's.
type probeKey struct {
	start      time.Time
	src, dst   netip.Addr
	dstPort    uint16
	proto      probe.Proto
	qos        probe.QoS
	payloadLen int
}

func keyOf(r *probe.Record) probeKey {
	return probeKey{r.Start, r.Src, r.Dst, r.DstPort, r.Proto, r.QoS, r.PayloadLen}
}

// runKeys runs [from, to) split at the given times and returns the sorted
// keys of every probe.
func runKeys(t *testing.T, r *Runner, from time.Time, cuts ...time.Time) []probeKey {
	t.Helper()
	var keys []probeKey
	for _, to := range cuts {
		recs, sink := NewRecordCollector()
		if err := r.Run(from, to, sink); err != nil {
			t.Fatal(err)
		}
		for i := range *recs {
			keys = append(keys, keyOf(&(*recs)[i]))
		}
		from = to
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []probeKey) {
	slices.SortFunc(keys, func(a, b probeKey) int {
		if c := a.start.Compare(b.start); c != 0 {
			return c
		}
		if c := a.src.Compare(b.src); c != 0 {
			return c
		}
		if c := a.dst.Compare(b.dst); c != 0 {
			return c
		}
		return int(a.dstPort) - int(b.dstPort)
	})
}

// TestConsecutiveRunsTile: the schedule is a grid, not a per-run draw, so
// Run(a,b) then Run(b,c) probes exactly what Run(a,c) does, whatever the
// seeds and wherever b falls.
func TestConsecutiveRunsTile(t *testing.T) {
	n, lists := testRig(t)
	a, b, c := t0.Add(3*time.Minute+7*time.Second), t0.Add(14*time.Minute+500*time.Millisecond), t0.Add(31*time.Minute)
	whole := runKeys(t, &Runner{Net: n, Lists: lists, Seed: 1}, a, c)
	split := runKeys(t, &Runner{Net: n, Lists: lists, Seed: 2}, a, b, c)
	if len(whole) == 0 || !slices.Equal(whole, split) {
		t.Fatalf("Run(a,c) scheduled %d probes, Run(a,b)+Run(b,c) %d, or they differ", len(whole), len(split))
	}
}

// TestRunProbesTheAgentSchedule: draining each server's agent.Schedule over
// [from, to), dispatching every probe when it falls due, gives exactly the
// probes the runner simulates for the same pinglists.
func TestRunProbesTheAgentSchedule(t *testing.T) {
	n, lists := testRig(t)
	from, to := t0.Add(5*time.Minute+3*time.Second), t0.Add(37*time.Minute)
	want := runKeys(t, &Runner{Net: n, Lists: lists, Seed: 3}, from, to)
	var got []probeKey
	top := n.Topology()
	for src, list := range lists {
		srcAddr := top.Server(src).Addr
		s := new(agent.Schedule)
		if err := s.Reset(srcAddr, list); err != nil {
			t.Fatal(err)
		}
		s.Start(from, new(agent.Schedule))
		for now := from; now.Before(to); {
			tg, wait, due := s.Pop(now)
			if !due {
				now = now.Add(wait)
				continue
			}
			got = append(got, probeKey{now, srcAddr, tg.Addr, tg.Port, tg.Proto, tg.QoS, tg.PayloadLen})
		}
	}
	sortKeys(got)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("the agent schedule dispatches %d probes, the runner simulates %d, or they differ", len(got), len(want))
	}
}

// TestRunEnforcesTheAgentSafetyRails: the runner schedules with the agent's
// rule, so a pinglist interval below the floor is probed at the floor and an
// invalid pinglist fails the run.
func TestRunEnforcesTheAgentSafetyRails(t *testing.T) {
	n, lists := testRig(t)
	for _, list := range lists {
		for i := range list.Peers {
			list.Peers[i].IntervalSec = 1
		}
	}
	recs, sink := NewRecordCollector()
	if err := (&Runner{Net: n, Lists: lists, Seed: 5}).Run(t0, t0.Add(10*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	last := map[[2]netip.Addr]time.Time{}
	for i := range *recs {
		r := &(*recs)[i]
		pair := [2]netip.Addr{r.Src, r.Dst}
		if prev, ok := last[pair]; ok && r.Start.Sub(prev) != pinglist.MinProbeInterval {
			t.Fatalf("%v -> %v probed %v apart, want the %v floor", r.Src, r.Dst, r.Start.Sub(prev), pinglist.MinProbeInterval)
		}
		last[pair] = r.Start
	}
	lists[0].Peers[0].Class = "bogus"
	if err := (&Runner{Net: n, Lists: lists}).Run(t0, t0.Add(time.Minute), sink); err == nil {
		t.Fatal("invalid pinglist accepted")
	}
}

// TestRunBatchesStayInOneWindow: the sink contract that lets an uploader cut
// a server's sketches at the first batch of each new window.
func TestRunBatchesStayInOneWindow(t *testing.T) {
	n, lists := testRig(t)
	var mu sync.Mutex
	batches := 0
	sink := func(_ topology.ServerID, recs []probe.Record) {
		mu.Lock()
		defer mu.Unlock()
		batches++
		w := probe.WindowIndex(recs[0].Start, probe.Window)
		for i := range recs {
			if probe.WindowIndex(recs[i].Start, probe.Window) != w {
				t.Errorf("a batch spans windows %d and %d", w, probe.WindowIndex(recs[i].Start, probe.Window))
				return
			}
		}
	}
	if err := (&Runner{Net: n, Lists: lists, Seed: 6}).Run(t0.Add(4*time.Minute), t0.Add(44*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	if batches < 5*len(lists) {
		t.Fatalf("%d batches for %d servers over five windows", batches, len(lists))
	}
}

func TestRunSkipsVIPTargets(t *testing.T) {
	// Pinglists can carry VIP monitoring targets that have no simulated
	// endpoint; the runner must skip them rather than fail.
	n, lists := testRig(t)
	lists[0].Peers = append(lists[0].Peers, pinglist.Peer{
		Addr: "192.0.2.10", Port: 80, Class: "intra-dc", Proto: "http",
		QoS: "high", IntervalSec: 10,
	})
	recs, sink := NewRecordCollector()
	r := &Runner{Net: n, Lists: lists, Seed: 6}
	if err := r.Run(t0, t0.Add(5*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	for i := range *recs {
		if (*recs)[i].Dst.String() == "192.0.2.10" {
			t.Fatal("runner probed a VIP with no simulated endpoint")
		}
	}
	if len(*recs) == 0 {
		t.Fatal("no records at all")
	}
}

func TestRunPayloadPeersCarryPayloadRTT(t *testing.T) {
	n, _ := testRig(t)
	top := n.Topology()
	cfg := core.DefaultGeneratorConfig()
	cfg.PayloadBytes = 800
	lists, err := core.Generate(top, cfg, "v2", t0)
	if err != nil {
		t.Fatal(err)
	}
	recs, sink := NewRecordCollector()
	r := &Runner{Net: n, Lists: lists, Seed: 7}
	if err := r.Run(t0, t0.Add(5*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	withPayload := 0
	for i := range *recs {
		rec := &(*recs)[i]
		if rec.PayloadLen > 0 {
			withPayload++
			if rec.Success() && rec.PayloadRTT == 0 {
				t.Fatalf("payload peer with no PayloadRTT: %+v", rec)
			}
		}
	}
	if withPayload == 0 {
		t.Fatal("no payload probes scheduled")
	}
}

func BenchmarkFleetRunnerHour(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		b.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC2Profile()}})
	if err != nil {
		b.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		b.Fatal(err)
	}
	var probes int
	col := NewStatsCollector(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &Runner{Net: n, Lists: lists, Seed: uint64(i) + 1}
		if err := r.Run(t0, t0.Add(time.Hour), col.Sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	probes = int(col.Groups()[""].Total())
	b.ReportMetric(float64(probes)/float64(b.N), "probes/hour")
}

// TestRunDeterministicAcrossWorkers is the golden determinism check: the
// per-server record streams must be byte-identical no matter how many
// workers the schedule is spread over (per-server rngs and the plan cache
// make worker scheduling invisible).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	n, lists := testRig(t)
	run := func(workers int) map[topology.ServerID][]probe.Record {
		out := map[topology.ServerID][]probe.Record{}
		var mu sync.Mutex
		r := &Runner{Net: n, Lists: lists, Seed: 77, Workers: workers}
		err := r.Run(t0, t0.Add(10*time.Minute), func(src topology.ServerID, recs []probe.Record) {
			mu.Lock()
			out[src] = append(out[src], recs...) // copy: the batch is pooled
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, many := run(1), run(4)
	if len(one) != len(many) {
		t.Fatalf("server sets differ: %d vs %d", len(one), len(many))
	}
	for id, recs := range one {
		if !slices.Equal(recs, many[id]) {
			t.Fatalf("server %v: Workers=1 and Workers=4 streams differ", id)
		}
	}
}

// TestRunAllDownProducesNoRecords pins the downed-source fast path: a
// powered-off server must not probe at all (no records, no error), which
// is what produces the white rows of Figure 8(b).
func TestRunAllDownProducesNoRecords(t *testing.T) {
	n, lists := testRig(t)
	n.SetPodsetDown(0, 0, true)
	n.SetPodsetDown(0, 1, true)
	recs, sink := NewRecordCollector()
	r := &Runner{Net: n, Lists: lists, Seed: 8}
	if err := r.Run(t0, t0.Add(10*time.Minute), sink); err != nil {
		t.Fatal(err)
	}
	if len(*recs) != 0 {
		t.Fatalf("downed fleet produced %d records", len(*recs))
	}
}

// TestFleetRunZeroAllocPerRecord guards the pooled-batch contract: after
// warm-up, allocations per run must not scale with the number of probes
// (batches come from the pool, the probe path is allocation-free). Wired
// into CI tier 3 via the ZeroAlloc name filter.
func TestFleetRunZeroAllocPerRecord(t *testing.T) {
	n, lists := testRig(t)
	col := NewStatsCollector(nil)
	run := func(d time.Duration) float64 {
		return testing.AllocsPerRun(3, func() {
			r := &Runner{Net: n, Lists: lists, Seed: 9, Workers: 1}
			if err := r.Run(t0, t0.Add(d), col.Sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(time.Minute) // warm plan cache, batch pool, collector groups
	short := run(2 * time.Minute)
	long := run(20 * time.Minute)
	// 10x the probes must not mean more allocations: growth here means a
	// per-probe or per-batch allocation crept back into the hot path.
	if long > short+32 {
		t.Errorf("allocations scale with records: %.0f for 2min vs %.0f for 20min", short, long)
	}
}

// BenchmarkFleetRun is the headline fleet throughput benchmark: one
// simulated hour of a two-podset DC, aggregated by the StatsCollector, reported as probes/sec
// of wall time.
func BenchmarkFleetRun(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		b.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC2Profile()}})
	if err != nil {
		b.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		b.Fatal(err)
	}
	col := NewStatsCollector(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &Runner{Net: n, Lists: lists, Seed: uint64(i) + 1}
		if err := r.Run(t0, t0.Add(time.Hour), col.Sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	probes := float64(col.Groups()[""].Total())
	b.ReportMetric(probes/b.Elapsed().Seconds(), "probes/sec")
	b.ReportMetric(probes/float64(b.N), "probes/run")
}

// NewRecordCollector returns a sink that appends every record to a shared
// slice (for small runs).
func NewRecordCollector() (*[]probe.Record, func(topology.ServerID, []probe.Record)) {
	var mu sync.Mutex
	out := &[]probe.Record{}
	return out, func(_ topology.ServerID, recs []probe.Record) {
		mu.Lock()
		*out = append(*out, recs...)
		mu.Unlock()
	}
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

// Sink is the Runner sink. It does not retain the record slice.
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
