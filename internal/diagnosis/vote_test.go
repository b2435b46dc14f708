package diagnosis

import (
	"testing"

	"pingmesh/internal/topology"
)

func path(ids ...topology.SwitchID) []topology.SwitchID { return ids }

func TestVoteSplitAndNormalize(t *testing.T) {
	vt := NewVoteTable(10)
	// One failure over a 4-hop path: each hop gets 1/4 vote, 1 traversal.
	vt.ObservePath(path(1, 2, 3, 4), true)
	// Three good probes over hops 1,2 only.
	for i := 0; i < 3; i++ {
		vt.ObservePath(path(1, 2), false)
	}
	if got := vt.Votes(3); got != 0.25 {
		t.Fatalf("hop 3 votes = %v, want 0.25", got)
	}
	if got := vt.Score(3); got != 0.25 {
		t.Fatalf("hop 3 score = %v, want 0.25 (one traversal)", got)
	}
	// Hop 1 carried 4 traversals: same vote mass, quarter the score.
	if got := vt.Score(1); got != 0.25/4 {
		t.Fatalf("hop 1 score = %v, want %v", got, 0.25/4)
	}
	if vt.observed != 4 || vt.failures != 1 {
		t.Fatalf("observed/failures = %d/%d, want 4/1", vt.observed, vt.failures)
	}
}

func TestVoteLinkTallies(t *testing.T) {
	vt := NewVoteTable(10)
	vt.ObservePath(path(1, 2, 3), true)
	vt.ObservePath(path(1, 2, 3), false)
	links := vt.AppendRankLinks(nil)
	if len(links) != 2 {
		t.Fatalf("got %d links, want 2", len(links))
	}
	for _, l := range links {
		if l.Votes != 0.5 || l.Coverage != 2 {
			t.Fatalf("link %v: votes=%v coverage=%v, want 0.5/2", l.Link, l.Votes, l.Coverage)
		}
	}
}

func TestZeroFailuresEmptyRanking(t *testing.T) {
	vt := NewVoteTable(8)
	for i := 0; i < 100; i++ {
		vt.ObservePath(path(1, 2, 3), false)
	}
	if got := vt.AppendRankGreedy(nil); len(got) != 0 {
		t.Fatalf("AppendRankGreedy with zero failures = %v, want empty", got)
	}
}

// TestGreedyExplainAway is the multi-fault episode: a loud fault (every
// probe through switch 0 fails) must not bury a quiet one (10% of probes
// through switch 5 fail) — after the loud fault's failures are explained
// away, the quiet fault must rank second.
func TestGreedyExplainAway(t *testing.T) {
	vt := NewVoteTable(10)
	for i := 0; i < 200; i++ {
		vt.ObservePath(path(0, 1, 2), true) // loud: blackholed ToR
	}
	for i := 0; i < 20; i++ {
		vt.ObservePath(path(3, 1, 5), true) // quiet: lossy switch 5
	}
	for i := 0; i < 180; i++ {
		vt.ObservePath(path(3, 1, 5), false)
	}
	// Heavy good traffic through the shared middle hop 1.
	for i := 0; i < 2000; i++ {
		vt.ObservePath(path(4, 1, 6), false)
	}
	ranked := vt.AppendRankGreedy(nil)
	if len(ranked) < 2 {
		t.Fatalf("got %d candidates, want >= 2: %v", len(ranked), ranked)
	}
	if ranked[0].Switch != 0 {
		t.Fatalf("top candidate = %d, want 0 (loud fault)", ranked[0].Switch)
	}
	// One-shot ranking would rank switch 2 (or 1) next — they share every
	// loud failure. Greedy explains those away.
	if ranked[1].Switch != 3 && ranked[1].Switch != 5 {
		t.Fatalf("second candidate = %d, want 3 or 5 (quiet fault's path)", ranked[1].Switch)
	}
	// The loud fault's co-path hops must hold no residual vote mass.
	for _, c := range ranked[1:] {
		if c.Switch == 1 || c.Switch == 2 {
			t.Fatalf("collateral hop %d still ranked with votes=%v", c.Switch, c.Votes)
		}
	}
}

func TestGreedyAddVotesTerminates(t *testing.T) {
	// AddVotes mass has no failure log behind it; greedy must fall back to
	// one-shot ordering rather than loop.
	vt := NewVoteTable(4)
	vt.AddVotes(2, 5, 10)
	vt.AddVotes(1, 3, 10)
	ranked := vt.AppendRankGreedy(nil)
	if len(ranked) != 2 || ranked[0].Switch != 2 || ranked[1].Switch != 1 {
		t.Fatalf("ranked = %v, want [2 1]", ranked)
	}
}

func TestObserveStagesCandidateAttribution(t *testing.T) {
	var ps PathSet
	ps.addStage(0)
	ps.addStage(1, 2, 3)
	ps.addStage(4)
	vt := NewVoteTable(8)
	vt.ObserveStages(&ps, true)
	// 5 candidate hops: vote share 1/5 each; stage credit 1/m.
	if got := vt.Votes(1); got != 0.2 {
		t.Fatalf("stage member votes = %v, want 0.2", got)
	}
	if got := vt.Score(0); got != 0.2 {
		t.Fatalf("singleton stage score = %v, want 0.2 (credit 1)", got)
	}
	if got := vt.Score(2); got < 0.6-1e-9 || got > 0.6+1e-9 {
		t.Fatalf("wide stage member score = %v, want 0.6 (credit 1/3)", got)
	}
}

func TestSortByScoreAndVotes(t *testing.T) {
	cands := []Candidate{
		{Switch: 3, Score: 0.5, Votes: 1},
		{Switch: 1, Score: 0.5, Votes: 9},
		{Switch: 2, Score: 0.9, Votes: 2},
	}
	SortByScore(cands)
	if cands[0].Switch != 2 || cands[1].Switch != 1 || cands[2].Switch != 3 {
		t.Fatalf("SortByScore order = %v", cands)
	}
}

func TestResetKeepsCapacityClearsLog(t *testing.T) {
	vt := NewVoteTable(4)
	vt.ObservePath(path(0, 1), true)
	vt.Reset()
	if vt.observed != 0 || vt.failures != 0 || vt.Votes(0) != 0 {
		t.Fatal("Reset left state behind")
	}
	if got := vt.AppendRankGreedy(nil); len(got) != 0 {
		t.Fatalf("post-Reset ranking = %v, want empty", got)
	}
}

// TestVoteIngestZeroAlloc guards the hot ingest path: once the link set
// and failure log are warm, ObservePath must not allocate.
func TestVoteIngestZeroAlloc(t *testing.T) {
	vt := NewVoteTable(16)
	hops := path(1, 2, 3, 4, 5, 6)
	// Warm up: allocate link tallies and grow the failure log capacity.
	for i := 0; i < 4096; i++ {
		vt.ObservePath(hops, i%8 == 0)
	}
	vt.Reset() // keeps capacity, empties tallies and log
	for i := 0; i < 512; i++ {
		vt.ObservePath(hops, i%8 == 0) // re-warm tallies post-reset
	}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		vt.ObservePath(hops, i%8 == 0)
		i++
	})
	if avg != 0 {
		t.Fatalf("ObservePath allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkVoteIngest(b *testing.B) {
	vt := NewVoteTable(64)
	hops := path(1, 9, 17, 33, 41, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt.ObservePath(hops, i%16 == 0)
	}
}

func BenchmarkRankGreedy(b *testing.B) {
	vt := NewVoteTable(64)
	for i := 0; i < 10000; i++ {
		vt.ObservePath(path(1, 9, 17, 33, 41, 2), i%16 == 0)
		vt.ObservePath(path(3, 10, 18, 34, 42, 4), i%64 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt.AppendRankGreedy(nil)
	}
}
