package scope

import (
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
)

// foldSpecs returns the two-spec family the fold property tests run:
// a filtered, grouped spec plus a catch-all, so multi-spec demux and the
// Where/KeyBytes paths are all exercised.
func foldSpecs() []FoldSpec {
	return []FoldSpec{
		{
			Name:  "ok-by-srcnet",
			Where: func(r *probe.Record) bool { return r.Err == "" },
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
				return append(dst, 'n', r.Src.As4()[2]), true
			},
		},
		{
			Name:     "all",
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return dst, true },
		},
	}
}

// foldExtents returns n single-record extents with RTTs, errors and Starts
// spread over several 10-minute windows.
func foldExtents(n int) [][]byte {
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		errStr := ""
		if i%7 == 0 {
			errStr = "connect: timeout"
		}
		r := mkRecord(i, time.Duration(200+i*13)*time.Microsecond, errStr)
		out[i] = probe.EncodeBatch([]probe.Record{r})
	}
	return out
}

// mergeAll merges the given partials (nil entries skipped) into a fresh
// partial in order.
func mergeAll(parts ...*Partial) *Partial {
	m := NewPartial()
	for _, p := range parts {
		if p != nil {
			m.Merge(p)
		}
	}
	return m
}

func TestPartialMergeAssociativeCommutative(t *testing.T) {
	specs := foldSpecs()
	exts := foldExtents(90)
	// Three folders over three disjoint extent thirds give three
	// independent partials per (spec, window).
	folders := make([]*Folder, 3)
	for i := range folders {
		folders[i] = NewFolder(t0, Every10Min, specs, nil)
		for j := i * 30; j < (i+1)*30; j++ {
			folders[i].FoldExtent(exts[j], t0)
		}
	}
	for _, sp := range specs {
		for win := int64(0); win < 9; win++ {
			a := folders[0].Partial(sp.Name, win)
			b := folders[1].Partial(sp.Name, win)
			c := folders[2].Partial(sp.Name, win)
			abc := mergeAll(a, b, c)
			// Associative: (a+b)+c == a+(b+c).
			if got := mergeAll(mergeAll(a, b), c); !reflect.DeepEqual(abc, got) {
				t.Fatalf("%s win %d: (a+b)+c != a+b+c", sp.Name, win)
			}
			if got := mergeAll(a, mergeAll(b, c)); !reflect.DeepEqual(abc, got) {
				t.Fatalf("%s win %d: a+(b+c) != a+b+c", sp.Name, win)
			}
			// Commutative: c+b+a == a+b+c.
			if got := mergeAll(c, b, a); !reflect.DeepEqual(abc, got) {
				t.Fatalf("%s win %d: c+b+a != a+b+c", sp.Name, win)
			}
		}
	}
}

// TestShardSplitMergeEqualsSingleFold is the sharding correctness
// property: partition extents across k shard folders at random, fold each
// shard's share in random order, and the merged per-window partials must
// equal one folder folding everything.
func TestShardSplitMergeEqualsSingleFold(t *testing.T) {
	specs := foldSpecs()
	exts := foldExtents(120)
	single := NewFolder(t0, Every10Min, specs, nil)
	for _, data := range exts {
		single.FoldExtent(data, t0)
	}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		k := 2 + trial%3
		folders := make([]*Folder, k)
		for s := range folders {
			folders[s] = NewFolder(t0, Every10Min, specs, nil)
		}
		assign := make([][]int, k)
		for i := range exts {
			s := rng.Intn(k)
			assign[s] = append(assign[s], i)
		}
		for s := range folders {
			// Random fold order within the shard: Merge and folding must
			// both be order-insensitive.
			rng.Shuffle(len(assign[s]), func(a, b int) {
				assign[s][a], assign[s][b] = assign[s][b], assign[s][a]
			})
			for _, i := range assign[s] {
				folders[s].FoldExtent(exts[i], t0)
			}
		}
		for _, sp := range specs {
			for win := int64(0); win < 12; win++ {
				want := mergeAll(single.Partial(sp.Name, win))
				parts := make([]*Partial, k)
				for s := range folders {
					parts[s] = folders[s].Partial(sp.Name, win)
				}
				if got := mergeAll(parts...); !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d, %s win %d: sharded merge != single fold", trial, sp.Name, win)
				}
			}
		}
	}
}

// TestForkAbsorbEqualsSingleFold pins what a multi-lane fold pass relies
// on: extents dealt at random between a folder and its forks, the forks
// absorbed, leave the folder exactly as folding everything itself would —
// partials, tallies and extent count.
func TestForkAbsorbEqualsSingleFold(t *testing.T) {
	specs := foldSpecs()
	exts := foldExtents(120)
	exts = append(exts, []byte("not,a,record\n"))
	single := NewFolder(t0, Every10Min, specs, nil)
	for _, data := range exts {
		single.FoldExtent(data, t0)
	}
	if single.ParseErrors() == 0 {
		t.Fatal("fixture has no undecodable row")
	}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		f := NewFolder(t0, Every10Min, specs, nil)
		// Two passes, so the second absorbs into windows the first filled.
		for pass, share := range [][][]byte{exts[:50], exts[50:]} {
			lanes := []*Folder{f}
			for k := 0; k < 1+trial%3; k++ {
				lanes = append(lanes, f.Fork())
			}
			for _, data := range share {
				lanes[rng.Intn(len(lanes))].FoldExtent(data, t0.Add(time.Duration(pass)*time.Minute))
			}
			for _, fork := range lanes[1:] {
				f.Absorb(fork)
			}
		}
		if f.Scanned() != single.Scanned() || f.ParseErrors() != single.ParseErrors() || f.Extents() != single.Extents() {
			t.Fatalf("trial %d: tallies %d/%d/%d, want %d/%d/%d", trial, f.Scanned(), f.ParseErrors(), f.Extents(),
				single.Scanned(), single.ParseErrors(), single.Extents())
		}
		if !f.LastFold().Equal(t0.Add(time.Minute)) {
			t.Fatalf("trial %d: last fold %v", trial, f.LastFold())
		}
		for _, sp := range specs {
			for win := int64(0); win < 12; win++ {
				want, got := mergeAll(single.Partial(sp.Name, win)), mergeAll(f.Partial(sp.Name, win))
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d, %s win %d: forked fold != single fold", trial, sp.Name, win)
				}
			}
		}
	}
}

func TestFolderWindowing(t *testing.T) {
	f := NewFolder(t0, Every10Min, foldSpecs(), nil)
	if idx := f.windowIndex(t0); idx != 0 {
		t.Fatalf("windowIndex(anchor) = %d", idx)
	}
	if idx := f.windowIndex(t0.Add(9*time.Minute + 59*time.Second)); idx != 0 {
		t.Fatalf("windowIndex(anchor+9:59) = %d", idx)
	}
	if idx := f.windowIndex(t0.Add(10 * time.Minute)); idx != 1 {
		t.Fatalf("windowIndex(anchor+10m) = %d", idx)
	}
	// Floor division: records before the anchor land in negative windows.
	if idx := f.windowIndex(t0.Add(-time.Second)); idx != -1 {
		t.Fatalf("windowIndex(anchor-1s) = %d", idx)
	}
	if idx := f.windowIndex(t0.Add(-10 * time.Minute)); idx != -1 {
		t.Fatalf("windowIndex(anchor-10m) = %d", idx)
	}
	if lo, hi, ok := f.Span("all", t0.Add(20*time.Minute), t0.Add(30*time.Minute)); !ok || lo != 2 || hi != 3 {
		t.Fatalf("Span(+20m,+30m) = [%d,%d), %v", lo, hi, ok)
	}
	if lo, hi, ok := f.Span("all", t0.Add(-10*time.Minute), t0.Add(20*time.Minute)); !ok || lo != -1 || hi != 2 {
		t.Fatalf("Span(-10m,+20m) = [%d,%d), %v", lo, hi, ok)
	}
	if _, _, ok := f.Span("all", t0.Add(time.Minute), t0.Add(11*time.Minute)); ok {
		t.Fatal("Span accepted an off-grid window")
	}
	if _, _, ok := f.Span("all", t0, t0.Add(15*time.Minute)); ok {
		t.Fatal("Span accepted a window and a half")
	}
	if _, _, ok := f.Span("all", t0, t0); ok {
		t.Fatal("Span accepted an empty span")
	}
}

// TestFolderPerSpecWindows: specs with different window lengths fold in one
// pass on one anchor — an hour partial holds exactly what the six 10-minute
// partials under it hold — and each answers Span on its own grid.
func TestFolderPerSpecWindows(t *testing.T) {
	specs := foldSpecs()
	hourly := specs[1]
	hourly.Name, hourly.Window = "all-hourly", Every1Hour
	tallies := specs[0]
	tallies.Name, tallies.Window, tallies.TalliesOnly = "tallies-hourly", Every1Hour, true
	f := NewFolder(t0, Every10Min, append(specs, hourly, tallies), nil)
	for _, data := range foldExtents(200) { // 20 windows: three hours and a bit
		f.FoldExtent(data, t0)
	}
	for hour := int64(0); hour < 4; hour++ {
		var tens []*Partial
		for w := 6 * hour; w < 6*hour+6; w++ {
			tens = append(tens, f.Partial("all", w))
		}
		want, got := mergeAll(tens...), mergeAll(f.Partial("all-hourly", hour))
		if want.Records == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("hour %d: hourly partial (%d records) != merge of its six windows (%d)", hour, got.Records, want.Records)
		}
		ta := f.Partial("tallies-hourly", hour)
		for k, st := range ta.Groups {
			if st.Total() == 0 || st.Summary().Count != 0 {
				t.Fatalf("hour %d group %q: total %d, histogram count %d; want tallies only", hour, k, st.Total(), st.Summary().Count)
			}
		}
	}
	if f.WindowOf("all-hourly", t0.Add(-time.Second)) != -1 || f.WindowOf("all-hourly", t0.Add(119*time.Minute)) != 1 {
		t.Fatal("WindowOf is not on the hour grid")
	}
	if lo, hi, ok := f.Span("all-hourly", t0.Add(time.Hour), t0.Add(3*time.Hour)); !ok || lo != 1 || hi != 3 {
		t.Fatalf("hourly Span(+1h,+3h) = [%d,%d), %v", lo, hi, ok)
	}
	if _, _, ok := f.Span("all-hourly", t0.Add(10*time.Minute), t0.Add(70*time.Minute)); ok {
		t.Fatal("hourly Span accepted an hour that starts off the hour grid")
	}
	if _, _, ok := f.Span("all-hourly", t0, t0.Add(10*time.Minute)); ok {
		t.Fatal("hourly Span accepted ten minutes")
	}
}

func TestFolderDropWindowsBefore(t *testing.T) {
	f := NewFolder(t0, Every10Min, foldSpecs(), nil)
	for _, data := range foldExtents(40) {
		f.FoldExtent(data, t0)
	}
	if f.Partial("all", 0) == nil || f.Partial("all", 3) == nil {
		t.Fatal("expected partials in windows 0 and 3")
	}
	f.DropWindowsBefore("all", 2)
	if f.Partial("all", 0) != nil || f.Partial("all", 1) != nil {
		t.Fatal("dropped windows still present")
	}
	if f.Partial("all", 2) == nil || f.Partial("all", 3) == nil {
		t.Fatal("retained windows lost")
	}
	if f.Partial("ok-by-srcnet", 0) == nil {
		t.Fatal("dropping one spec's windows dropped another's")
	}
	if _, _, ok := f.Span("all", t0, t0.Add(10*time.Minute)); ok {
		t.Fatal("Span offers a dropped window")
	}
	if _, _, ok := f.Span("all", t0.Add(20*time.Minute), t0.Add(40*time.Minute)); !ok {
		t.Fatal("Span refuses retained windows")
	}
	f.DropWindowsBefore("all", 1) // the floor only rises
	if _, _, ok := f.Span("all", t0.Add(10*time.Minute), t0.Add(20*time.Minute)); ok {
		t.Fatal("a lower floor re-opened a dropped window")
	}

	// What folds into a dropped window afterwards is late: counted once per
	// record, aggregated by the specs that still retain the window and by
	// nobody else. A fork inherits the floor, and its count is absorbed.
	lateRec := probe.EncodeBatch([]probe.Record{mkRecord(1, time.Millisecond, "")})
	kept := f.Partial("ok-by-srcnet", 0).Records
	f.FoldExtent(lateRec, t0)
	fork := f.Fork()
	fork.FoldExtent(lateRec, t0)
	f.Absorb(fork)
	if f.Partial("all", 0) != nil {
		t.Fatal("a late record recreated a dropped partial")
	}
	if got := f.Partial("ok-by-srcnet", 0).Records; got != kept+2 {
		t.Fatalf("the spec that retains window 0 holds %d records, want %d", got, kept+2)
	}
	if f.Late() != 2 {
		t.Fatalf("Late() = %d, want 2", f.Late())
	}
	// Folding into retained windows still works (the window cache was
	// invalidated, not left pointing at a dropped partial).
	before := f.Partial("all", 2).Records
	f.FoldExtent(probe.EncodeBatch([]probe.Record{mkRecord(23, time.Millisecond, "")}), t0)
	if got := f.Partial("all", 2).Records; got != before+1 || f.Late() != 2 {
		t.Fatalf("window 2 holds %d records after one more, want %d; late %d", got, before+1, f.Late())
	}
}

// TestAbsorbMovesGroups guards the owning Absorb: a fork is the pass's own, so
// the groups the folder lacks — in a window it already holds — move over, and
// absorbing n new groups costs the map's growth, not n deep copies (which is
// what merging the fork as a live partial did: a LatencyStats, a histogram and
// its buckets per group).
func TestAbsorbMovesGroups(t *testing.T) {
	const groups, runs = 512, 5
	spec := FoldSpec{Name: "by-port", KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
		return append(dst, byte(r.DstPort>>8), byte(r.DstPort)), true
	}}
	f := NewFolder(t0, Every10Min, []FoldSpec{spec}, nil)
	f.FoldExtent(probe.EncodeBatch([]probe.Record{mkRecord(0, time.Millisecond, "")}), t0)
	var forks []*Folder
	for run := 0; run <= runs; run++ { // AllocsPerRun warms up with one more
		recs := make([]probe.Record, groups)
		for i := range recs {
			recs[i] = mkRecord(0, time.Duration(200+i)*time.Microsecond, "")
			recs[i].DstPort = uint16(1 + run*groups + i)
		}
		fork := f.Fork()
		fork.FoldExtent(probe.EncodeBatch(recs), t0)
		forks = append(forks, fork)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f.Absorb(forks[next])
		next++
	})
	if got := len(f.Partial("by-port", 0).Groups); got != 1+(runs+1)*groups {
		t.Fatalf("folder holds %d groups, want %d", got, 1+(runs+1)*groups)
	}
	if allocs > groups/8 {
		t.Fatalf("absorbing a fork of %d new groups allocated %.0f times", groups, allocs)
	}
	// An absorbed fork comes back empty, on the folder's current floors.
	f.DropWindowsBefore("by-port", 1)
	fork := f.Fork()
	if fork != forks[runs] || fork.Scanned() != 0 || fork.Extents() != 0 || fork.Partial("by-port", 0) != nil {
		t.Fatalf("Fork did not hand back the last absorbed fork, emptied")
	}
	fork.FoldExtent(probe.EncodeBatch([]probe.Record{mkRecord(0, time.Millisecond, "")}), t0)
	if fork.Late() != 1 || fork.Partial("by-port", 0) != nil {
		t.Fatalf("reused fork folded below the folder's floor: late %d", fork.Late())
	}
}

// TestFoldExtentZeroAlloc guards the fold hot path: once group keys and
// window partials exist and the groups' sparse histogram runs have reached
// their size, folding an extent allocates nothing per record — for specs on
// the base window, on a longer one, and tallies-only (CI tier 3; the
// production job table has the same guard in internal/dsa).
func TestFoldExtentZeroAlloc(t *testing.T) {
	specs := foldSpecs()
	hourly, tallies := specs[0], specs[1]
	hourly.Name, hourly.Window = "hourly", Every1Hour
	tallies.Name, tallies.Window, tallies.TalliesOnly = "tallies", Every1Hour, true
	specs = append(specs, hourly, tallies)
	f := NewFolder(t0, Every10Min, specs, nil)
	recs := make([]probe.Record, 0, 256)
	for i := 0; i < 256; i++ {
		errStr := ""
		if i%9 == 0 {
			errStr = "connect: timeout"
		}
		recs = append(recs, mkRecord(i%30, time.Duration(150+i*7)*time.Microsecond, errStr))
	}
	data := probe.EncodeBatch(recs)
	f.FoldExtent(data, t0) // warm up: materialize groups, windows, key buffer
	allocs := testing.AllocsPerRun(20, func() {
		f.FoldExtent(data, t0)
	})
	if allocs != 0 {
		t.Fatalf("FoldExtent allocates %.1f times per extent (%d records), want 0", allocs, len(recs))
	}
}

// runSpecs are specs that keep the fold contract (FoldSpec.Where) in every
// way it allows: by identity, by success, by grid window, on a longer
// window, tallies-only.
func runSpecs() []FoldSpec {
	return append(foldSpecs(),
		FoldSpec{
			Name:  "failed-by-pair",
			Where: func(r *probe.Record) bool { return r.Err != "" },
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
				return append(dst, r.Src.As4()[2], r.Dst.As4()[3], byte(r.DstPort)), true
			},
		},
		FoldSpec{
			Name: "by-grid-window",
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
				return append(dst, byte(probe.WindowIndex(r.Start, probe.Window))), r.DstPort != 443
			},
		},
		FoldSpec{
			Name: "hourly-by-dst", Window: Every1Hour, TalliesOnly: true,
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return append(dst, r.Dst.As4()[3]), true },
		})
}

// peerRuns returns perPeer probes from each of peers peers, step apart from
// t0+offset; every failEvery-th fails (none if 0). Peer by peer, they are
// runs as the simulated fleet uploads them; interleaved, the same records
// with no two of a peer in a row.
func peerRuns(peers, perPeer int, offset, step time.Duration, failEvery int, interleaved bool) []probe.Record {
	recs := make([]probe.Record, 0, peers*perPeer)
	for n := 0; n < peers*perPeer; n++ {
		p, k := n/perPeer, n%perPeer
		if interleaved {
			p, k = n%peers, n/peers
		}
		r := probe.Record{
			Start:   t0.Add(offset + time.Duration(k)*step),
			Src:     netip.AddrFrom4([4]byte{10, 0, byte(p / 2 % 3), 1}),
			Dst:     netip.AddrFrom4([4]byte{10, 0, 9, byte(p / 4)}),
			SrcPort: uint16(40000 + p*perPeer + k),
			DstPort: []uint16{80, 443}[p%2], // peers 2i and 2i+1 differ in it alone
			RTT:     time.Duration(200+k*37%500) * time.Microsecond,
		}
		if k%13 == 5 {
			r.RTT = 3 * time.Second
		}
		if failEvery > 0 && k%failEvery == 0 {
			r.Err, r.RTT = "connect: timeout", 21*time.Second
		}
		recs = append(recs, r)
	}
	return recs
}

// TestFoldRunsEqualPerRecord pins the fold of runs to the fold it replaces:
// the same records, in the orders uploads put them in, leave every partial,
// Late and Scanned what evaluating each record on its own leaves — Where,
// KeyBytes, then LatencyStats.Add into its spec's window, or late below the
// window floor — in CSV and PMB1 batches alike. Ad-hoc jobs are held to
// refRun the same way, over a span off the grid that cuts runs.
func TestFoldRunsEqualPerRecord(t *testing.T) {
	specs := runSpecs()
	for _, tc := range []struct {
		name  string
		recs  []probe.Record
		floor int64 // of "all"
		reuse bool  // whether some records must reuse a resolution
	}{
		{"per-peer runs", peerRuns(6, 40, 3*time.Minute, 19*time.Second, 0, false), 0, true},
		{"interleaved peers", peerRuns(6, 40, 3*time.Minute, 19*time.Second, 0, true), 0, false},
		{"runs cut by a 10-minute boundary", peerRuns(6, 30, 9*time.Minute+45*time.Second, time.Second, 0, false), 0, true},
		{"successes and failures mixed", peerRuns(6, 40, 3*time.Minute, 19*time.Second, 3, false), 0, true},
		{"a run reaching below the floor", peerRuns(6, 40, 3*time.Minute, 19*time.Second, 7, false), 1, true},
	} {
		var data []byte
		for i := 0; i < len(tc.recs); i += 25 {
			batch := tc.recs[i:min(i+25, len(tc.recs))]
			if i/25%2 == 0 {
				data = probe.AppendBatch(data, batch)
			} else {
				data = probe.AppendBinaryBatch(data, batch, nil)
			}
		}
		f := NewFolder(t0, Every10Min, specs, nil)
		f.DropWindowsBefore("all", tc.floor)
		f.FoldExtent(data, t0)

		want := map[string]map[int64]*Partial{}
		var late uint64
		for i := range tc.recs {
			r := &tc.recs[i]
			isLate := false
			for _, sp := range specs {
				if sp.Where != nil && !sp.Where(r) {
					continue
				}
				key, ok := sp.KeyBytes(nil, r)
				if !ok {
					continue
				}
				win := floorDiv(probe.WindowIndex(r.Start, Every10Min)-probe.WindowIndex(t0, Every10Min), int64(max(sp.Window, Every10Min)/Every10Min))
				if sp.Name == "all" && win < tc.floor {
					isLate = true
					continue
				}
				if want[sp.Name] == nil {
					want[sp.Name] = map[int64]*Partial{}
				}
				p := want[sp.Name][win]
				if p == nil {
					p = NewPartial()
					want[sp.Name][win] = p
				}
				st := p.Groups[string(key)]
				if st == nil {
					st = newStats(sp.TalliesOnly)
					p.Groups[string(key)] = st
				}
				st.Add(r)
				p.Records++
				if p.MinStart.IsZero() || r.Start.Before(p.MinStart) {
					p.MinStart = r.Start
				}
				if r.Start.After(p.MaxStart) {
					p.MaxStart = r.Start
				}
			}
			if isLate {
				late++
			}
		}
		if f.Scanned() != uint64(len(tc.recs)) || f.Late() != late || late == 0 != (tc.floor == 0) {
			t.Fatalf("%s: scanned %d, late %d; want %d, %d", tc.name, f.Scanned(), f.Late(), len(tc.recs), late)
		}
		if f.Entries() != uint64(len(tc.recs)) || (f.Resolves() < f.Entries()) != tc.reuse {
			t.Fatalf("%s: %d of %d entries resolved", tc.name, f.Resolves(), f.Entries())
		}
		for _, sp := range specs {
			for win := int64(-1); win < 8; win++ {
				if got, want := mergeAll(f.Partial(sp.Name, win)), mergeAll(want[sp.Name][win]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s window %d differs from the per-record fold (%d records, want %d)", tc.name, sp.Name, win, got.Records, want.Records)
				}
			}
		}
	}

	// An ad-hoc job: more extents than lanes, and lanes to deal them to.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	recs := peerRuns(6, 40, 3*time.Minute, 19*time.Second, 4, false)
	for i := 0; i < len(recs); i += 20 {
		if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs[i:i+20])); err != nil {
			t.Fatal(err)
		}
	}
	if n := store.NumExtents("pingmesh/2026-07-01"); n < 4 {
		t.Fatalf("the store holds %d extents", n)
	}
	for _, sp := range specs {
		runJob(t, Job{Name: sp.Name, Source: Source{Store: store, StreamPrefix: "pingmesh/"},
			From: t0.Add(7*time.Minute + 13*time.Second), To: t0.Add(14*time.Minute + 47*time.Second),
			Where: sp.Where, KeyBytes: sp.KeyBytes, TalliesOnly: sp.TalliesOnly})
	}
}
