package fleet

import (
	"slices"
	"sync"
	"testing"
	"time"

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

func TestIntervalScale(t *testing.T) {
	n, lists := testRig(t)
	count := func(scale float64) int {
		recs, sink := NewRecordCollector()
		r := &Runner{Net: n, Lists: lists, Seed: 5, IntervalScale: scale}
		if err := r.Run(t0, t0.Add(10*time.Minute), sink); err != nil {
			t.Fatal(err)
		}
		return len(*recs)
	}
	dense := count(0.5)
	normal := count(1)
	sparse := count(2)
	if !(dense > normal && normal > sparse) {
		t.Fatalf("interval scaling wrong: dense=%d normal=%d sparse=%d", dense, normal, sparse)
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
