package diagnosis

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// episode is a seeded fault episode over a two-DC fabric: records grouped
// by source server, as agents upload them. Every failure is caused by one
// of three injected faults (no background noise), so the greedy ranking's
// scores are well separated and its order does not hang on the last bit of
// a float sum.
type episode struct {
	top     *topology.Topology
	net     *netsim.Network
	batches [][]probe.Record
	probes  uint64
	fails   uint64
}

func buildEpisode(tb testing.TB, seed uint64, perServer int) *episode {
	return buildRunEpisode(tb, seed, perServer, 1, nil)
}

// buildRunEpisode is buildEpisode with records grouped per peer, as
// fleet.Runner and SimTestbed.RunWindow emit them: each drawn peer gets
// run consecutive probes from random source ports. mutate, when set,
// injects fabric faults before any probe. Run 1 with no mutation is
// buildEpisode's random-pair episode, draw for draw.
func buildRunEpisode(tb testing.TB, seed uint64, perServer, run int, mutate func(*netsim.Network)) *episode {
	tb.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 3},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DefaultProfiles()[0]}})
	if err != nil {
		tb.Fatal(err)
	}
	if mutate != nil {
		mutate(net)
	}
	faulty := map[topology.SwitchID]float64{
		top.ToRs(0)[1]:                  0.9,
		top.DCs[0].Spines[0]:            0.2,
		top.DCs[1].Podsets[0].Leaves[1]: 0.5,
	}
	rng := rand.New(rand.NewPCG(seed, 0xe915))
	ep := &episode{top: top, net: net}
	servers := top.Servers()
	var buf []topology.SwitchID
	for _, s := range servers {
		var recs []probe.Record
		for i := 0; i < perServer; i += run {
			d := servers[rng.IntN(len(servers))]
			if d.ID == s.ID {
				continue
			}
			for range run {
				r := probe.Record{Src: s.Addr, Dst: d.Addr, SrcPort: uint16(32768 + rng.IntN(16384)), DstPort: 8765}
				hops, ok := net.AppendPath(buf[:0], s.ID, d.ID, r.SrcPort, r.DstPort)
				buf = hops
				if !ok {
					continue
				}
				for _, sw := range hops {
					if p, bad := faulty[sw]; bad && rng.Float64() < p {
						r.Err = "timeout"
						ep.fails++
						break
					}
				}
				recs = append(recs, r)
				ep.probes++
			}
		}
		ep.batches = append(ep.batches, recs)
	}
	return ep
}

// TestConcurrentIngestParity: goroutines ObserveBatch-ing a shuffled
// partition of an episode leave the collector where one sequential ingest
// does — same candidate and link order, every tally within float
// reassociation error, the probe counts exact.
func TestConcurrentIngestParity(t *testing.T) {
	ep := buildEpisode(t, 7, 400)
	seq := NewCollector(CollectorConfig{Top: ep.top, Paths: ep.net})
	for _, b := range ep.batches {
		seq.ObserveBatch(b)
	}
	want := seq.Snapshot(0)
	if want.Observed != ep.probes || want.Failures != ep.fails {
		t.Fatalf("sequential observed/failures = %d/%d, want %d/%d", want.Observed, want.Failures, ep.probes, ep.fails)
	}
	if len(want.Candidates) < 3 {
		t.Fatalf("episode ranks %d candidates, want the three faults", len(want.Candidates))
	}

	const lanes = 4
	order := rand.New(rand.NewPCG(11, 13)).Perm(len(ep.batches))
	par := NewCollector(CollectorConfig{Top: ep.top, Paths: ep.net})
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := l; i < len(order); i += lanes {
				par.ObserveBatch(ep.batches[order[i]])
			}
		}()
	}
	wg.Wait()
	got := par.Snapshot(0)

	if got.Observed != want.Observed || got.Failures != want.Failures {
		t.Fatalf("observed/failures = %d/%d, want %d/%d", got.Observed, got.Failures, want.Observed, want.Failures)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i, w := range want.Candidates {
		g := got.Candidates[i]
		if g.Switch != w.Switch || !near(g.Score, w.Score) || !near(g.Votes, w.Votes) || g.Coverage != w.Coverage {
			t.Fatalf("candidate %d = %+v, want %+v", i, g, w)
		}
	}
	if len(got.Links) != len(want.Links) {
		t.Fatalf("%d links, want %d", len(got.Links), len(want.Links))
	}
	for i, w := range want.Links {
		g := got.Links[i]
		if g.Link != w.Link || !near(g.Score, w.Score) || g.Coverage != w.Coverage {
			t.Fatalf("link %d = %+v, want %+v", i, g, w)
		}
	}
	for sw := range want.score {
		if got.rank[sw] != want.rank[sw] || !near(got.score[sw], want.score[sw]) {
			t.Fatalf("switch %d: rank/score %d/%v, want %d/%v", sw, got.rank[sw], got.score[sw], want.rank[sw], want.score[sw])
		}
	}
	obs := par.Metrics().Snapshot().Counters
	if obs["diagnosis.probes_observed"] != int64(ep.probes) || obs["diagnosis.votes_cast"] != int64(ep.fails) {
		t.Fatalf("counters observed/votes = %d/%d, want %d/%d",
			obs["diagnosis.probes_observed"], obs["diagnosis.votes_cast"], ep.probes, ep.fails)
	}
}

// linearTopHop is the walk topHop replaced: the first switch of the ranked
// list that lies on one of the pair's candidate stages.
func linearTopHop(ranked []Candidate, ps *PathSet) topology.SwitchID {
	for _, cand := range ranked {
		for s := 0; s < ps.Stages(); s++ {
			for _, sw := range ps.Stage(s) {
				if sw == cand.Switch {
					return sw
				}
			}
		}
	}
	return -1
}

// TestRankingIndexLaw: for random vote tables, "lowest rank among the
// pair's candidate hops" is the linear walk of the full ranked list, for
// every server pair — same-ToR pairs and pairs no ranked switch touches
// (hop -1) included — and the score it returns is the table's raw score.
func TestRankingIndexLaw(t *testing.T) {
	ep := buildEpisode(t, 3, 0)
	top, servers := ep.top, ep.top.Servers()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(0x1a3, uint64(trial)))
		vt := NewVoteTable(top.NumSwitches())
		var buf []topology.SwitchID
		// Failures confined to a few sources, so most of the fabric stays
		// unranked; trial 0 casts no vote at all.
		for i := 0; i < trial*30; i++ {
			src := servers[rng.IntN(1+trial%5)].ID
			dst := servers[rng.IntN(len(servers))].ID
			hops, ok := ep.net.AppendPath(buf[:0], src, dst, uint16(rng.IntN(1<<16)), 80)
			if buf = hops; ok {
				vt.ObservePath(hops, rng.IntN(3) == 0)
			}
		}
		if trial%4 == 3 {
			// Mass with no failure log behind it: the one-shot tail, where a
			// switch can appear in the order twice.
			vt.AddVotes(topology.SwitchID(rng.IntN(top.NumSwitches())), 2, 5)
		}
		r := vt.rank()
		untouched := 0
		var ps PathSet
		for _, a := range servers {
			for _, b := range servers {
				CandidateHops(&ps, top, a.ID, b.ID)
				want := linearTopHop(r.Candidates, &ps)
				got, score := r.topHop(&ps)
				if got != want {
					t.Fatalf("trial %d pair %s->%s: topHop = %d, linear walk = %d", trial, a.Name, b.Name, got, want)
				}
				if want < 0 {
					untouched++
					if score != 0 {
						t.Fatalf("trial %d: untouched pair scored %v", trial, score)
					}
				} else if score != vt.Score(want) {
					t.Fatalf("trial %d: score %v, want raw score %v", trial, score, vt.Score(want))
				}
			}
		}
		if trial > 0 && trial < 5 && untouched == 0 {
			t.Fatalf("trial %d: every pair touches a ranked switch; the -1 case went unexercised", trial)
		}
	}
}

// TestSnapshotRanksOncePerChange: Snapshot re-ranks only after an ingest,
// and a limit caps the published lists without hiding a switch ranked past
// it from topHop.
func TestSnapshotRanksOncePerChange(t *testing.T) {
	ep := buildEpisode(t, 5, 200)
	col := NewCollector(CollectorConfig{Top: ep.top, Paths: ep.net})
	ranked := func() int64 { return col.Metrics().Snapshot().Counters["diagnosis.episodes_ranked"] }
	for _, b := range ep.batches {
		col.ObserveBatch(b)
	}
	full := col.Snapshot(0)
	if col.Snapshot(0) != full || ranked() != 1 {
		t.Fatalf("a second Snapshot with no ingest between re-ranked (%d rankings)", ranked())
	}
	one := col.Snapshot(1)
	if len(one.Candidates) != 1 || len(one.Links) != 1 || ranked() != 1 {
		t.Fatalf("Snapshot(1): %d candidates, %d links, %d rankings", len(one.Candidates), len(one.Links), ranked())
	}
	second := full.Candidates[1].Switch
	ps := PathSet{}
	ps.addStage(second)
	if hop, score := one.topHop(&ps); hop != second || score <= 0 {
		t.Fatalf("capped ranking lost the second-ranked switch: hop %d score %v", hop, score)
	}
	col.ObserveBatch(ep.batches[0])
	if col.Snapshot(0) == full || ranked() != 2 {
		t.Fatalf("Snapshot after an ingest served the stale ranking (%d rankings)", ranked())
	}
}

// TestLinkIndexMatchesMap: the dense link index tallies every modeled path
// where a topology-less table's map does, and nothing of the model falls
// through to the collector's fallback map.
func TestLinkIndexMatchesMap(t *testing.T) {
	ep := buildEpisode(t, 9, 300)
	col := NewCollector(CollectorConfig{Top: ep.top, Paths: ep.net})
	plain := NewVoteTable(ep.top.NumSwitches())
	var buf []topology.SwitchID
	for _, b := range ep.batches {
		col.ObserveBatch(b)
		for i := range b {
			src, _ := ep.top.ServerByAddr(b[i].Src)
			dst, _ := ep.top.ServerByAddr(b[i].Dst)
			buf, _ = ep.net.AppendPath(buf[:0], src, dst, b[i].SrcPort, b[i].DstPort)
			plain.ObservePath(buf, !b[i].Success())
		}
	}
	if n := len(col.vt.links); n != 0 {
		t.Fatalf("%d modeled links fell through to the fallback map", n)
	}
	got, want := col.vt.AppendRankLinks(nil), plain.AppendRankLinks(nil)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d ranked links, want %d (> 0)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("link %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A link the fabric does not have (a fixture, a traceroute off the
	// model) still tallies, in the fallback.
	tors := ep.top.ToRs(0)
	col.ObservePath([]topology.SwitchID{tors[0], tors[1]}, true)
	if len(col.vt.links) != 1 {
		t.Fatalf("off-model link: fallback holds %d links, want 1", len(col.vt.links))
	}
}

// TestFailLogOverflowCounted: failures past the explain-away log's cap
// still vote, and each is counted as dropped from the log.
func TestFailLogOverflowCounted(t *testing.T) {
	ep := buildEpisode(t, 1, 0)
	col := NewCollector(CollectorConfig{Top: ep.top})
	hops := []topology.SwitchID{ep.top.ToRs(0)[0]}
	for i := 0; i < maxFailLog+5; i++ {
		col.ObservePath(hops, true)
	}
	c := col.Metrics().Snapshot().Counters
	if c["diagnosis.faillog_dropped"] != 5 || c["diagnosis.votes_cast"] != maxFailLog+5 {
		t.Fatalf("dropped/votes = %d/%d, want 5/%d", c["diagnosis.faillog_dropped"], c["diagnosis.votes_cast"], maxFailLog+5)
	}
}

// TestObserveBatchZeroAlloc: a warm batch ingest allocates nothing, in
// either path mode.
func TestObserveBatchZeroAlloc(t *testing.T) {
	ep := buildEpisode(t, 2, 300)
	for _, paths := range []PathResolver{ep.net, nil} {
		col := NewCollector(CollectorConfig{Top: ep.top, Paths: paths})
		for range 3 {
			for _, b := range ep.batches {
				col.ObserveBatch(b)
			}
		}
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			col.ObserveBatch(ep.batches[i%len(ep.batches)])
			i++
		}); avg != 0 {
			t.Fatalf("ObserveBatch (exact paths: %v) allocates %.2f/op, want 0", paths != nil, avg)
		}
	}
}

// BenchmarkObserveBatch is the incident workload's ingest: one upload per
// server, from as many goroutines as there are cores. ns/probe is lane
// time — what one uploading worker waits per record, wall time times the
// lanes the machine can really run at once — so it must not rise as cores
// are added; it doubled with every doubling when each record took the
// collector's mutex around its path lookup. random-pair draws a new peer
// for every probe, so every run is one record long; run-ordered sends 24
// probes to each peer in a row, as agents upload (incident's runs average
// about 23).
func BenchmarkObserveBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		run  int
	}{{"random-pair", 1}, {"run-ordered", 24}} {
		b.Run(c.name, func(b *testing.B) {
			ep := buildRunEpisode(b, 4, 600, c.run, nil)
			col := NewCollector(CollectorConfig{Top: ep.top, Paths: ep.net})
			for _, batch := range ep.batches {
				col.ObserveBatch(batch)
			}
			var lane, probes atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i, n := int(lane.Add(1)), int64(0)
				for pb.Next() {
					batch := ep.batches[i%len(ep.batches)]
					col.ObserveBatch(batch)
					n += int64(len(batch))
					i += 7
				}
				probes.Add(n)
			})
			b.StopTimer()
			lanes := min(runtime.GOMAXPROCS(0), runtime.NumCPU(), b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*float64(lanes)/float64(probes.Load()), "ns/probe")
		})
	}
}
