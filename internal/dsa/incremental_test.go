package dsa

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/analysis"
	"pingmesh/internal/core"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
	"pingmesh/internal/trace"
)

// diffFixture is two hours of probes from a two-DC fleet (with one podset
// degraded so alerts fire, and a ToR that starts black-holing in the second
// hour so the daily detection has a candidate and the two hours differ), kept
// as encoded batches so trials can replay them in randomized upload orders.
type diffFixture struct {
	top        *topology.Topology
	services   []*analysis.Service
	batches    [][]byte // CSV, 32 records a batch
	extentSize int      // small enough that batches seals many extents

	// sketched is the same records the way an agent uploads them: one PMB1 batch per server per 10-minute window, healthy probes
	// folded into per-peer sketches, anomalies raw.
	sketched [][]byte
}

// asSketched returns the fixture with the PMB1 encoding as its batches.
func (fx *diffFixture) asSketched() *diffFixture {
	sk := *fx
	sk.batches, sk.extentSize = fx.sketched, 1<<10
	return &sk
}

func buildDiffFixture(t testing.TB) *diffFixture {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 2},
		{Name: "DC2", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade a podset so drop/SLA alerting paths produce rows to compare
	// and the sketched encoding carries raw anomalies next to its sketches.
	n.SetPodsetDegraded(0, 1, netsim.Degradation{DropProb: 0.03, ExtraLatencyMean: 8 * time.Millisecond})
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		t.Fatal(err)
	}
	fx := &diffFixture{top: top, extentSize: 16 << 10}
	fx.services = []*analysis.Service{
		analysis.ServiceFromServers("search", top, top.DCs[0].Podsets[1].Servers()),
	}
	// The runner calls the sink from concurrent workers, one server per
	// worker at a time: collect per source server and concatenate in server
	// order, so the corpus is built without a shared slice and is the same
	// on every run.
	perSrc := make([][][]byte, top.NumServers())
	accs := make([]*agent.SketchAccumulator, top.NumServers())
	raw := make([][diffWindows][]probe.Record, top.NumServers())
	runner := &fleet.Runner{Net: n, Lists: lists, Seed: 21}
	sink := func(src topology.ServerID, recs []probe.Record) {
		if accs[src] == nil {
			accs[src] = agent.NewSketchAccumulator(top.Server(src).Addr, probe.Window)
		}
		for i := range recs {
			r := &recs[i]
			if agent.ShipsRaw(r) {
				w := r.Start.Sub(t0) / probe.Window
				raw[src][w] = append(raw[src][w], *r)
			} else {
				accs[src].Observe(r)
			}
		}
		// Chunked uploads: many small batches make upload-order shuffling
		// meaningful.
		const chunk = 32
		for len(recs) > 0 {
			n := chunk
			if n > len(recs) {
				n = len(recs)
			}
			perSrc[src] = append(perSrc[src], probe.EncodeBatch(recs[:n]))
			recs = recs[n:]
		}
	}
	for h := 0; h < diffHours; h++ {
		if h == 1 {
			n.AddBlackhole(top.ToRs(1)[1], netsim.Blackhole{MatchFraction: 0.1})
		}
		from, to := hour(h)
		if err := runner.Run(from, to, sink); err != nil {
			t.Fatal(err)
		}
	}
	failed, slow := 0, 0
	for src, batches := range perSrc {
		fx.batches = append(fx.batches, batches...)
		for w := int64(0); w < diffWindows; w++ {
			for i := range raw[src][w] {
				if raw[src][w][i].Success() {
					slow++
				} else {
					failed++
				}
			}
			sks := accs[src].CutBefore(accs[src].WindowIndex(t0)+w+1, nil)
			fx.sketched = append(fx.sketched, probe.AppendBinaryBatch(nil, raw[src][w], sks))
		}
	}
	if len(fx.batches) < 50 || len(fx.sketched) < 50 {
		t.Fatalf("fixture too small: %d CSV and %d PMB1 batches", len(fx.batches), len(fx.sketched))
	}
	if failed == 0 || slow == 0 {
		t.Fatalf("fixture ships %d failed and %d slow probes raw; the sketched encoding needs both", failed, slow)
	}
	return fx
}

// entries counts the entries of the fixture's batches and, of them, the
// sketches.
func (fx *diffFixture) entries() (n, sketches int64) {
	var sc probe.Scanner
	for _, batch := range fx.batches {
		sc.Reset(batch)
		for kind := sc.ScanEntry(); kind != probe.EntryEOF; kind = sc.ScanEntry() {
			n++
			if kind == probe.EntrySketch {
				sketches++
			}
		}
	}
	return n, sketches
}

const diffStream = "pingmesh/2026-07-01"

// The fixture's span, in hours and in 10-minute cycles: two hours, so that a
// daily cycle merges more than one hour partial.
const (
	diffHours   = 2
	diffWindows = 6 * diffHours
)

// newStore returns an empty store with small extents, so the fixture
// seals many of them.
func (fx *diffFixture) newStore(t *testing.T) *cosmos.Store {
	t.Helper()
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: fx.extentSize})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// upload appends the fixture's batches named by order.
func (fx *diffFixture) upload(t *testing.T, store *cosmos.Store, order []int) {
	t.Helper()
	for _, i := range order {
		if err := store.Append(diffStream, fx.batches[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func (fx *diffFixture) inOrder() []int {
	order := make([]int, len(fx.batches))
	for i := range order {
		order[i] = i
	}
	return order
}

func (fx *diffFixture) newPipe(t testing.TB, store *cosmos.Store) *Pipeline {
	t.Helper()
	return fx.newPipeOn(t, store, simclock.NewSim(t0))
}

func (fx *diffFixture) newPipeOn(t testing.TB, store *cosmos.Store, clock simclock.Clock) *Pipeline {
	t.Helper()
	pipe, err := New(Config{
		Store:    store,
		Top:      fx.top,
		Clock:    clock,
		Services: fx.services,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// oracleResults is the reference the fold tier is compared against: every
// job evaluated over [from, to) a record at a time, straight off the store —
// probe.Scanner, the job's Where, the span, its KeyBytes, then
// LatencyStats.Add or AddSketch — sharing no code with the fold.
func oracleResults(t *testing.T, p *Pipeline, jobs []*cycleJob, from, to time.Time) []*scope.Result {
	t.Helper()
	results := make([]*scope.Result, len(jobs))
	for i := range results {
		results[i] = &scope.Result{}
		results[i].Groups = make(map[string]*analysis.LatencyStats)
	}
	store := p.cfg.Store
	var sc probe.Scanner
	var rep probe.Record
	for _, stream := range store.Streams(streamPrefix) {
		for e := 0; e < store.NumExtents(stream); e++ {
			data, err := store.ReadExtent(stream, e)
			if err != nil {
				t.Fatal(err)
			}
			sc.Reset(data)
			for kind := sc.ScanEntry(); kind != probe.EntryEOF; kind = sc.ScanEntry() {
				if sc.RowErr() != nil {
					continue
				}
				r := &rep
				var sk *probe.Sketch
				if kind == probe.EntrySketch {
					sk = sc.Sketch()
					sk.FillRecord(&rep)
				} else {
					r = sc.Record()
				}
				for i, job := range jobs {
					if job.spec.Where != nil && !job.spec.Where(r) {
						continue
					}
					if r.Start.Before(from) || !r.Start.Before(to) {
						continue
					}
					key, ok := job.spec.KeyBytes(nil, r)
					if !ok {
						continue
					}
					res := results[i]
					st := res.Groups[string(key)]
					if st == nil {
						st = analysis.NewLatencyStats()
						if job.spec.TalliesOnly {
							st = analysis.NewTallies()
						}
						res.Groups[string(key)] = st
					}
					if sk != nil {
						st.AddSketch(sk)
						res.Records += sk.Records()
					} else {
						st.Add(r)
						res.Records++
					}
				}
			}
		}
	}
	return results
}

// oracleCycle publishes one cycle of the cadence over [from, to) from
// oracleResults, whether or not the span is on the grid.
func oracleCycle(t *testing.T, p *Pipeline, kind string, from, to time.Time) {
	t.Helper()
	cy := p.beginCycle()
	jobs := p.jobsOf(kind)
	if err := p.publish(&cy, kind, jobs, oracleResults(t, p, jobs, from, to), from, to); err != nil {
		t.Fatal(err)
	}
}

func window(w int) (from, to time.Time) {
	from = t0.Add(time.Duration(w) * 10 * time.Minute)
	return from, from.Add(10 * time.Minute)
}

func hour(h int) (from, to time.Time) {
	from = t0.Add(time.Duration(h) * time.Hour)
	return from, from.Add(time.Hour)
}

// renderReports renders everything the pipeline has published canonically
// (sorted; map iteration randomizes insertion order in both pipelines): every
// row of every report table and every cell of every DC's latest heatmap.
func renderReports(t *testing.T, p *Pipeline) string {
	t.Helper()
	var lines []string
	for _, tab := range []struct {
		name string
		cols []string
	}{
		{TableSLA, []string{"scope", "window_start", "window_end", "probes", "p50", "p99", "drop_rate", "failure_rate", "verdict", "reason"}},
		{TableAlerts, []string{"scope", "at", "reason", "drop_rate", "p99"}},
		{TablePatterns, []string{"dc", "window_start", "pattern", "podset"}},
		{TableDropRates, []string{"dc", "class", "window_start", "probes", "drop_rate"}},
		{TableBlackholes, []string{"tor", "score", "window_start"}},
	} {
		rows, err := p.DB().Query(tab.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			line := tab.name
			for _, c := range tab.cols {
				line += fmt.Sprintf("|%v", r[c])
			}
			lines = append(lines, line)
		}
	}
	for dc, hm := range p.Heatmaps() {
		for i, row := range hm.Heatmap.Cells {
			for j, cell := range row {
				lines = append(lines, fmt.Sprintf("heatmap|%s|%v|%v|%d|%d|%v|%v|%d",
					dc, hm.From, hm.To, i, j, cell.HasData, cell.P99, cell.Probes))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// renderResults renders one result per job group by group: the aggregate
// level, where a single missing or doubled record shows even if no report
// row moves.
func renderResults(jobs []*cycleJob, results []*scope.Result) string {
	var lines []string
	for i, res := range results {
		for k, st := range res.Groups {
			lines = append(lines, fmt.Sprintf("%s|%x|%d|%d|%d|%v|%v|%v", jobs[i].spec.Name, k,
				st.Total(), st.Success(), st.Failed(), st.DropRate(), st.Percentile(0.5), st.Percentile(0.99)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestIncrementalMatchesFullScanDifferential pins the tentpole invariant:
// for randomized upload orders, with uploads, fold passes and cycles
// interleaved so that every cycle sees folded extents, sealed-but-unfolded
// extents, an open tail and late records for already published windows,
// cycles of all three cadences served from folded partials produce report
// rows — SLA, alerts, patterns, heatmap cells, drop rates, black-hole
// candidates — byte-identical to the record-at-a-time oracle over the same
// store state.
//
// It holds for both upload encodings of the fixture's records, and with
// everything uploaded the two encodings publish the same rows: a fleet
// switching to sketch uploads changes its bytes, not its reports.
func TestIncrementalMatchesFullScanDifferential(t *testing.T) {
	csv := buildDiffFixture(t)
	pmb1 := csv.asSketched()
	t.Run("csv", func(t *testing.T) { testIncrementalMatchesScan(t, csv) })
	t.Run("pmb1", func(t *testing.T) { testIncrementalMatchesScan(t, pmb1) })

	// Probe count, failure rate and drop rate are exact on both sides;
	// P50/P99 are read off the same bucket layout, so they are identical
	// too, not merely within a bucket.
	want, wantBytes := csv.foldedReports(t)
	got, gotBytes := pmb1.foldedReports(t)
	if got != want {
		t.Fatalf("sketch uploads changed the published rows\ncsv:\n%s\npmb1:\n%s", want, got)
	}
	if gotBytes > wantBytes/20 {
		t.Fatalf("sketch uploads are %d bytes, CSV %d: less than the 20x reduction sketching is for", gotBytes, wantBytes)
	}
}

// foldedReports uploads every batch, folds, publishes the fixture's cycles
// at every cadence from the partials and returns the rendered rows and the
// bytes uploaded.
func (fx *diffFixture) foldedReports(t *testing.T) (reports string, uploaded int) {
	t.Helper()
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	pipe := fx.newPipe(t, store)
	for w := 0; w < diffWindows; w++ {
		from, to := window(w)
		if err := pipe.RunTenMinute(from, to); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < diffHours; h++ {
		from, to := hour(h)
		if err := pipe.RunHourly(from, to); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.RunDaily(t0, t0.Add(diffHours*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if lag := pipe.ShardLags()[0]; lag.Folded == 0 {
		t.Fatal("rows not served from folds: no extent folded")
	}
	for _, b := range fx.batches {
		uploaded += len(b)
	}
	return renderReports(t, pipe), uploaded
}

func testIncrementalMatchesScan(t *testing.T, fx *diffFixture) {
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		order := rng.Perm(len(fx.batches))
		store := fx.newStore(t)
		pipe := fx.newPipe(t, store)
		ref := fx.newPipe(t, store)

		// Each window's share of the shuffled batches holds records of every
		// window, so every cycle after the first also sees records for
		// windows and hours it has already published.
		for w := 0; w < diffWindows; w++ {
			share := order[w*len(order)/diffWindows : (w+1)*len(order)/diffWindows]
			cut := rng.Intn(len(share) + 1)
			fx.upload(t, store, share[:cut])
			pipe.FoldNow()
			fx.upload(t, store, share[cut:])
			from, to := window(w)
			if err := pipe.RunTenMinute(from, to); err != nil {
				t.Fatal(err)
			}
			oracleCycle(t, ref, Cycle10Min, from, to)
			if (w+1)%6 == 0 {
				from, to := hour(w / 6)
				if err := pipe.RunHourly(from, to); err != nil {
					t.Fatal(err)
				}
				oracleCycle(t, ref, Cycle1Hour, from, to)
			}
		}
		// The day's partials are never dropped by a cycle, so the daily jobs
		// can also be compared group by group before they publish.
		day := t0.Add(diffHours * time.Hour)
		daily := pipe.jobsOf(Cycle1Day)
		cy := pipe.beginCycle()
		got, err := pipe.inc.serve(&cy, Cycle1Day, daily, t0, day)
		if err != nil {
			t.Fatalf("trial %d: daily jobs not served from partials: %v", trial, err)
		}
		want := oracleResults(t, ref, ref.jobsOf(Cycle1Day), t0, day)
		if got, want := renderResults(daily, got), renderResults(daily, want); got != want {
			t.Fatalf("trial %d: daily aggregates differ from the oracle\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		if err := pipe.RunDaily(t0, day); err != nil {
			t.Fatal(err)
		}
		oracleCycle(t, ref, Cycle1Day, t0, day)

		wantRows := renderReports(t, ref)
		for _, family := range []string{"sla|dc/DC1", "sla|interdc/", "sla|service/search", "sla|pod/", "alerts|",
			"patterns|DC2", "heatmap|DC1", "drop_rates|DC1|intra-pod", "drop_rates|DC2|inter-dc", "blackholes|"} {
			if !strings.Contains(wantRows, family) {
				t.Fatalf("reference reports have no %q row:\n%s", family, wantRows)
			}
		}
		if gotRows := renderReports(t, pipe); gotRows != wantRows {
			t.Fatalf("trial %d: incremental reports differ from the oracle\nwant:\n%s\ngot:\n%s", trial, wantRows, gotRows)
		}
		lag := pipe.ShardLags()[0]
		if lag.Folded == 0 || lag.Backlog != 0 {
			t.Fatalf("trial %d: folded %d extents, backlog %d after cycles", trial, lag.Folded, lag.Backlog)
		}
		if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.late_records"]; n == 0 {
			t.Fatalf("trial %d: shuffled uploads folded no late record", trial)
		}
		// Each sketch resolves; at least half the raw records reuse the
		// resolution of the one before them, as the fleet uploads runs.
		ctrs := pipe.JobRegistry().Snapshot().Counters
		entries, sketches := fx.entries()
		if got, resolves := ctrs["dsa.fold.entries"], ctrs["dsa.fold.resolves"]; got != entries || resolves < sketches ||
			2*(entries-resolves) < entries-sketches {
			t.Fatalf("trial %d: %d entries (%d sketches) folded as %d, %d resolved", trial, entries, sketches, got, resolves)
		}
	}
}

// TestOffGridCycleIsRejected pins the one-path contract at every cadence: a
// span that is not a whole number of the cadence's windows on the grid, or
// that reaches partials already dropped — a published 10-minute window, a
// published hour, an hour older than the daily jobs retain — fails the cycle
// with an error naming the cadence and the span, before anything is folded,
// published or announced; and every on-grid cycle that follows publishes
// what the oracle publishes over the same span, byte for byte.
func TestOffGridCycleIsRejected(t *testing.T) {
	csv := buildDiffFixture(t)
	t.Run("csv", func(t *testing.T) { testOffGridCycleIsRejected(t, csv) })
	t.Run("pmb1", func(t *testing.T) { testOffGridCycleIsRejected(t, csv.asSketched()) })
}

func testOffGridCycleIsRejected(t *testing.T, fx *diffFixture) {
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	clock := simclock.NewSim(t0)
	pipe := fx.newPipeOn(t, store, clock)
	ref := fx.newPipe(t, store)
	announced := 0
	pipe.SetOnCycle(func(string, time.Time, time.Time) { announced++ })

	onGrid := func(kind string, from, to time.Time) {
		t.Helper()
		if err := pipe.runCycle(kind, from, to); err != nil {
			t.Fatal(err)
		}
		oracleCycle(t, ref, kind, from, to)
		if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
			t.Fatalf("%s cycle over [%v, %v) diverged from the oracle\nwant:\n%s\ngot:\n%s", kind, from, to, want, got)
		}
	}
	offGrid := func(what, kind string, from, to time.Time) {
		t.Helper()
		rows, lag, cycles := renderReports(t, pipe), pipe.ShardLags()[0], announced
		err := pipe.runCycle(kind, from, to)
		if err == nil {
			t.Fatalf("%s: accepted", what)
		}
		for _, want := range []string{kind + " cycle", from.Format(time.RFC3339), to.Format(time.RFC3339)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", what, err, want)
			}
		}
		if got := renderReports(t, pipe); got != rows {
			t.Fatalf("%s: the rejected cycle published rows\nbefore:\n%s\nafter:\n%s", what, rows, got)
		}
		if got := pipe.ShardLags()[0]; got != lag || announced != cycles {
			t.Fatalf("%s: the rejected cycle folded (%+v, was %+v) or fired OnCycle (%d times, was %d)", what, got, lag, announced, cycles)
		}
	}
	w1From, w1To := window(1)
	h0From, h0To := hour(0)
	h1From, h1To := hour(1)
	day := t0.Add(diffHours * time.Hour)

	offGrid("a 10-minute span off the grid", Cycle10Min, t0.Add(5*time.Minute), t0.Add(15*time.Minute))
	offGrid("a window and a half", Cycle10Min, t0, t0.Add(15*time.Minute))
	for w := 0; w < diffWindows; w++ {
		from, to := window(w)
		onGrid(Cycle10Min, from, to)
		if w == 3 {
			// Publishing window 3 dropped the partials of windows 0-2.
			offGrid("window 1 after window 3", Cycle10Min, w1From, w1To)
		}
	}
	offGrid("an hour off the hour grid", Cycle1Hour, t0.Add(10*time.Minute), t0.Add(70*time.Minute))
	offGrid("half an hour", Cycle1Hour, t0, t0.Add(30*time.Minute))
	onGrid(Cycle1Hour, h0From, h0To)
	offGrid("hour 0 again, its partials dropped once published", Cycle1Hour, h0From, h0To)
	offGrid("hours 0-1 after hour 0", Cycle1Hour, t0, day)
	onGrid(Cycle1Hour, h1From, h1To)
	offGrid("a day off the hour grid", Cycle1Day, t0.Add(10*time.Minute), day)
	onGrid(Cycle1Day, t0, day)
	onGrid(Cycle1Day, t0, day) // daily partials outlive a cycle
	// 25 hours on, hour 0 has aged out of what the daily jobs retain: a day
	// of more than 24 hours ending at the clock reaches it; the 24 hours from
	// hour 1 do not.
	clock.AdvanceTo(t0.Add(hoursKept * time.Hour))
	offGrid("a day longer than 24 hours", Cycle1Day, t0, clock.Now())
	onGrid(Cycle1Day, h1From, clock.Now())
}

// lateMatters reports whether some job that drops its partials on publish
// aggregates r: the SLA and pod-pair jobs take probes without payload, and
// the inter-DC SLA job takes every inter-DC probe.
func lateMatters(r *probe.Record) bool { return r.PayloadLen == 0 || r.Class == probe.InterDC }

// TestLateRecordsAreCounted: a batch uploaded for a window whose 10-minute
// rows and whose hour are already published is counted in
// dsa.fold.late_records when it is folded, changes no published row, and
// still reaches the daily jobs, which retain its hour. Its window's partials
// are gone: a re-run of the window is off the grid and fails.
func TestLateRecordsAreCounted(t *testing.T) {
	fx := buildDiffFixture(t)
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 1}) // every batch seals its own extent
	if err != nil {
		t.Fatal(err)
	}
	// The late batch: the first whose records all lie in window 0 and matter
	// to a job that has published by then.
	late, lateRecords := -1, int64(0)
	_, w0To := window(0)
	for i, b := range fx.batches {
		recs, errs := probe.DecodeBatch(b)
		ok := len(errs) == 0 && len(recs) > 0
		n := int64(0)
		for j := range recs {
			ok = ok && recs[j].Start.Before(w0To)
			if lateMatters(&recs[j]) {
				n++
			}
		}
		if ok && n > 0 {
			late, lateRecords = i, n
			break
		}
	}
	if late < 0 {
		t.Fatal("fixture has no batch confined to window 0")
	}
	var rest []int
	for i := range fx.batches {
		if i != late {
			rest = append(rest, i)
		}
	}
	fx.upload(t, store, rest)
	pipe := fx.newPipe(t, store)
	for _, w := range []int{0, 1} {
		from, to := window(w)
		if err := pipe.RunTenMinute(from, to); err != nil {
			t.Fatal(err)
		}
	}
	h0From, h0To := hour(0)
	if err := pipe.RunHourly(h0From, h0To); err != nil {
		t.Fatal(err)
	}
	if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.late_records"]; n != 0 {
		t.Fatalf("dsa.fold.late_records = %d before anything arrived late", n)
	}
	published := renderReports(t, pipe)

	fx.upload(t, store, []int{late})
	pipe.FoldNow()
	if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.late_records"]; n != lateRecords {
		t.Fatalf("dsa.fold.late_records = %d after a late batch of %d records that matter", n, lateRecords)
	}
	if got := renderReports(t, pipe); got != published {
		t.Fatalf("a late batch changed published rows\nbefore:\n%s\nafter:\n%s", published, got)
	}

	// Not lost: the daily jobs fold it.
	ref := fx.newPipe(t, store)
	for _, table := range []string{TableSLA, TableAlerts, TablePatterns} {
		if err := pipe.DB().Truncate(table); err != nil {
			t.Fatal(err)
		}
	}
	day := t0.Add(diffHours * time.Hour)
	if err := pipe.RunDaily(t0, day); err != nil {
		t.Fatal(err)
	}
	oracleCycle(t, ref, Cycle1Day, t0, day)
	w0From, _ := window(0)
	if err := pipe.RunTenMinute(w0From, w0To); err == nil {
		t.Fatal("a re-run of a published window was accepted")
	}
	// The heatmaps of the hourly cycle are on pipe only.
	got, want := renderReports(t, pipe), renderReports(t, ref)
	var gotRows []string
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "heatmap|") {
			gotRows = append(gotRows, line)
		}
	}
	if got = strings.Join(gotRows, "\n"); got != want {
		t.Fatalf("rows with the late batch differ from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestDailyPartialsBoundedWithoutDailyCycle folds thirty hours of uploads,
// the clock moving with them, and never runs an hourly or a daily cycle: each
// of their jobs must still hold no more than hoursKept hour partials, and
// what then arrives for an aged-out hour is late.
func TestDailyPartialsBoundedWithoutDailyCycle(t *testing.T) {
	fx := buildDiffFixture(t)
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(t0)
	pipe := fx.newPipeOn(t, store, clock)
	src, dst := fx.top.Server(0).Addr, fx.top.Server(1).Addr
	upload := func(at time.Time) {
		t.Helper()
		rec := probe.Record{Start: at, Src: src, Dst: dst, DstPort: 80, Class: probe.IntraPod, RTT: 300 * time.Microsecond}
		if err := store.Append(cosmos.DailyStream("pingmesh")(at), probe.EncodeBatch([]probe.Record{rec})); err != nil {
			t.Fatal(err)
		}
	}
	const hours = 30
	for h := 0; h < hours; h++ {
		at := t0.Add(time.Duration(h)*time.Hour + 30*time.Minute)
		clock.AdvanceTo(at)
		upload(at)
		pipe.FoldNow()
		for _, job := range append(pipe.jobsOf(Cycle1Hour), pipe.jobsOf(Cycle1Day)...) {
			resident := 0
			first := pipe.inc.folder.WindowOf(job.spec.Name, t0)
			for w := first - 1; w <= first+hours; w++ {
				if pipe.inc.folder.Partial(job.spec.Name, w) != nil {
					resident++
				}
			}
			if want := min(h+1, hoursKept); resident != want {
				t.Fatalf("hour %d: %s holds %d hour partials, want %d", h, job.spec.Name, resident, want)
			}
		}
	}
	if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.late_records"]; n != 0 {
		t.Fatalf("dsa.fold.late_records = %d with uploads on time", n)
	}
	upload(t0.Add(30 * time.Minute))
	pipe.FoldNow()
	if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.late_records"]; n != 1 {
		t.Fatalf("dsa.fold.late_records = %d after one record for an aged-out hour", n)
	}
}

// TestServerPairFoldStateIsSmall measures what the tallies-only server-pair
// job keeps resident per pair per retained hour — the aggregate, its binary
// key and the map slot — over 20,000 synthetic pairs.
func TestServerPairFoldStateIsSmall(t *testing.T) {
	fx := buildDiffFixture(t)
	pipe := fx.newPipe(t, fx.newStore(t))
	var spec scope.FoldSpec
	for _, job := range pipe.jobsOf(Cycle1Day) {
		if job.spec.Name == "server-pairs" {
			spec = job.spec
		}
	}
	const pairs = 20000
	recs := make([]probe.Record, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		r := probe.Record{
			Start: t0.Add(time.Duration(i) * time.Millisecond),
			Src:   netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			Dst:   netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}),
			RTT:   time.Duration(200+i%500) * time.Microsecond,
		}
		failed := r
		failed.Err = "connect: timeout"
		recs = append(recs, r, failed)
	}
	data := probe.EncodeBatch(recs)
	folder := scope.NewFolder(t0, scope.Every10Min, []scope.FoldSpec{spec}, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	folder.FoldExtent(data, t0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	part := folder.Partial(spec.Name, 0)
	if len(part.Groups) != pairs {
		t.Fatalf("%d groups, want %d", len(part.Groups), pairs)
	}
	for k, st := range part.Groups {
		if st.Total() != 2 || st.Failed() != 1 || st.Summary().Count != 0 {
			t.Fatalf("pair %s: total %d, failed %d, histogram count %d", analysis.ServerPairKey(k), st.Total(), st.Failed(), st.Summary().Count)
		}
		break
	}
	if per := (after.HeapAlloc - before.HeapAlloc) / pairs; per > 200 {
		t.Fatalf("server-pair fold state is %d B per pair per hour, want <= 200", per)
	}
	runtime.KeepAlive(data)
}

// TestFoldProductionTableZeroAlloc extends scope's TestFoldExtentZeroAlloc
// to the job table the pipeline runs: once an extent's groups exist and their
// sparse runs have reached their size, folding it again — every spec of every
// cadence, both encodings — allocates nothing (CI tier 3).
func TestFoldProductionTableZeroAlloc(t *testing.T) {
	fx := buildDiffFixture(t)
	pipe := fx.newPipe(t, fx.newStore(t))
	for name, batches := range map[string][][]byte{"csv": fx.batches, "pmb1": fx.sketched} {
		var data []byte
		for _, b := range batches[:40] {
			data = append(data, b...)
		}
		folder := pipe.inc.folder.Fork()
		folder.FoldExtent(data, t0)
		if folder.Scanned() == 0 || folder.ParseErrors() != 0 {
			t.Fatalf("%s: scanned %d records with %d parse errors", name, folder.Scanned(), folder.ParseErrors())
		}
		if allocs := testing.AllocsPerRun(10, func() { folder.FoldExtent(data, t0) }); allocs != 0 {
			t.Fatalf("%s: folding a warm extent through the production job table allocates %.1f times", name, allocs)
		}
	}
}

// TestZeroValueConfigFolds pins that the fold tier needs no opt-in: a
// pipeline built from nothing but a store and a topology serves a
// grid-aligned cycle from folded extents, not from a fold of every extent.
func TestZeroValueConfigFolds(t *testing.T) {
	fx := buildDiffFixture(t)
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	pipe, err := New(Config{Store: store, Top: fx.top})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{Store: store, Top: fx.top})
	if err != nil {
		t.Fatal(err)
	}

	from, to := window(1)
	if err := pipe.RunTenMinute(from, to); err != nil {
		t.Fatal(err)
	}
	oracleCycle(t, ref, Cycle10Min, from, to)
	if folded := pipe.ShardLags()[0].Folded; folded == 0 {
		t.Fatal("aligned cycle: no extent folded")
	}
	got, want := renderReports(t, pipe), renderReports(t, ref)
	if got != want || !strings.Contains(want, "sla|dc/DC1") {
		t.Fatalf("zero-value pipeline diverged from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFoldExactlyOnceUnderConcurrency runs uploads, fold passes and cycles
// on separate goroutines at once. Every sealed extent must be folded
// exactly once — the folder's count equals the seal journal's — and the
// rows published afterwards must equal the oracle's, which a doubly or
// never folded extent would break (shuffled uploads spread every window
// over every extent).
func TestFoldExactlyOnceUnderConcurrency(t *testing.T) {
	fx := buildDiffFixture(t)
	store := fx.newStore(t)
	pipe := fx.newPipe(t, store)
	order := rand.New(rand.NewSource(7)).Perm(len(fx.batches))

	const appenders = 4
	var uploads sync.WaitGroup
	for a := 0; a < appenders; a++ {
		uploads.Add(1)
		go func(a int) {
			defer uploads.Done()
			for i := a; i < len(order); i += appenders {
				if err := store.Append(diffStream, fx.batches[order[i]]); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	done := make(chan struct{})
	var loops sync.WaitGroup
	loop := func(body func() error) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := body(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(func() error { pipe.FoldNow(); return nil })
	loop(func() error { return pipe.RunTenMinute(window(0)) })
	uploads.Wait()
	close(done)
	loops.Wait()

	pipe.FoldNow()
	var sealed uint64
	store.VisitSealed(0, func(cosmos.SealEvent) { sealed++ })
	lag := pipe.ShardLags()[0]
	if sealed == 0 || lag.Folded != sealed || lag.Backlog != 0 {
		t.Fatalf("folded %d extents with backlog %d, journal holds %d", lag.Folded, lag.Backlog, sealed)
	}
	if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.extents_folded"]; uint64(n) != sealed {
		t.Fatalf("dsa.fold.extents_folded = %d, journal holds %d", n, sealed)
	}

	// The concurrent cycles published window 0 over partial uploads; start
	// the comparison from empty tables.
	for _, table := range []string{TableSLA, TableAlerts} {
		if err := pipe.DB().Truncate(table); err != nil {
			t.Fatal(err)
		}
	}
	ref := fx.newPipe(t, store)
	for w := 0; w < 6; w++ {
		from, to := window(w)
		if err := pipe.RunTenMinute(from, to); err != nil {
			t.Fatal(err)
		}
		oracleCycle(t, ref, Cycle10Min, from, to)
	}
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows after concurrent folding differ from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// driveScheduled starts the pipeline's recurring jobs and moves the sim clock
// through the given number of 10-minute steps. After each step it waits — on
// the publication hook, not on time — for exactly the cycles that step
// schedules, each over the window of its cadence that the step closed, then
// for their jobs to accept the next boundary, so none is missed and no verdict
// depends on how fast the jobs run. It returns how many cycles of each kind
// were published.
func driveScheduled(t *testing.T, pipe *Pipeline, clock *simclock.Sim, steps int) map[string]int {
	t.Helper()
	type cycle struct {
		kind     string
		from, to time.Time
	}
	every := map[string]time.Duration{Cycle10Min: scope.Every10Min, Cycle1Hour: scope.Every1Hour, Cycle1Day: scope.Every1Day}
	// One slot per cycle a step can schedule.
	events := make(chan cycle, 3)
	pipe.SetOnCycle(func(kind string, from, to time.Time) { events <- cycle{kind, from, to} })
	pipe.Start()
	defer pipe.Stop()
	published := map[string]int{}
	for step := 1; step <= steps; step++ {
		clock.Advance(10 * time.Minute)
		want := map[string]int{Cycle10Min: 1}
		if step%6 == 0 {
			want[Cycle1Hour] = 1
		}
		if step%144 == 0 {
			want[Cycle1Day] = 1
		}
		for n := len(want); n > 0; n-- {
			select {
			case cy := <-events:
				kind := cy.kind
				if want[kind] == 0 {
					t.Fatalf("step %d: unexpected %s cycle", step, kind)
				}
				if to := clock.Now().Truncate(every[kind]); !cy.to.Equal(to) || cy.to.Sub(cy.from) != every[kind] {
					t.Fatalf("step %d: %s cycle over [%v, %v), want the %v ending %v", step, kind, cy.from, cy.to, every[kind], to)
				}
				want[kind]--
				published[kind]++
			case <-time.After(time.Minute):
				t.Fatalf("step %d: still waiting for %v; job metrics %v", step, want, pipe.JobRegistry().Snapshot().Counters)
			}
		}
		pipe.jm.Wait()
	}
	m := pipe.JobRegistry().Snapshot().Counters
	for _, job := range []string{"fold", "10min", "1hour", "1day"} {
		if m["scope.job."+job+".errors"] != 0 {
			t.Fatalf("scheduled %s job failed: %v", job, m)
		}
	}
	for job, kind := range map[string]string{"10min": Cycle10Min, "1hour": Cycle1Hour, "1day": Cycle1Day} {
		if m["scope.job."+job+".overlap_skipped"] != 0 || m["scope.job."+job+".runs"] != int64(published[kind]) {
			t.Fatalf("scheduled %s job: %d runs, %d skipped, %d cycles published", job,
				m["scope.job."+job+".runs"], m["scope.job."+job+".overlap_skipped"], published[kind])
		}
	}
	return published
}

// TestIncrementalScheduledPipeline drives the pipeline through the job
// manager on the sim clock for a full day. Every scheduled cycle — 144
// ten-minute, 24 hourly, one daily — must be served from partials: the
// scheduler's grid and the folder's coincide at every cadence, nothing is re-scanned and no backlog is left; and what the
// scheduled cycles publish equals the oracle over the same spans.
func TestIncrementalScheduledPipeline(t *testing.T) {
	// The sketched encoding: the oracle reads the store 169 times.
	fx := buildDiffFixture(t).asSketched()
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	clock := simclock.NewSim(t0)
	pipe := fx.newPipeOn(t, store, clock)
	published := driveScheduled(t, pipe, clock, 144)
	if published[Cycle10Min] != 144 || published[Cycle1Hour] != 24 || published[Cycle1Day] != 1 {
		t.Fatalf("cycles published over a day: %v", published)
	}
	counters := pipe.JobRegistry().Snapshot().Counters
	if counters["dsa.fold.extents_folded"] == 0 {
		t.Fatalf("no extents folded by the scheduled pipeline: %v", counters)
	}
	if pipe.MaxFoldBacklog() != 0 {
		t.Fatalf("fold backlog %d after cycles", pipe.MaxFoldBacklog())
	}

	ref := fx.newPipe(t, store)
	for w := 0; w < 144; w++ {
		from, to := window(w)
		oracleCycle(t, ref, Cycle10Min, from, to)
		if (w+1)%6 == 0 {
			from, to := hour(w / 6)
			oracleCycle(t, ref, Cycle1Hour, from, to)
		}
	}
	oracleCycle(t, ref, Cycle1Day, t0, t0.Add(24*time.Hour))
	got, want := renderReports(t, pipe), renderReports(t, ref)
	if got != want || !strings.Contains(want, "blackholes|") || !strings.Contains(want, "sla|pod/") {
		t.Fatalf("scheduled cycles diverged from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestScheduledPipelineStartedOffGrid constructs and starts the pipeline
// three minutes and seventeen seconds into a window — on a real clock every
// start is off the grid — and lets the scheduler fire every 10-minute and
// hourly cycle of the fixture's two hours. The windows it publishes must be
// the grid's, :00/:10/…, the ones agents cut their sketches on: every cycle
// served from partials, and the CSV and the PMB1 encoding of the same probes
// publishing the same rows. (Windows anchored at the start time attribute a
// whole sketch to the window holding its MinStart but a CSV record to the one
// holding its own Start, and the two encodings' rows part.)
func TestScheduledPipelineStartedOffGrid(t *testing.T) {
	csv := buildDiffFixture(t)
	run := func(fx *diffFixture) string {
		store := fx.newStore(t)
		fx.upload(t, store, fx.inOrder())
		clock := simclock.NewSim(t0.Add(3*time.Minute + 17*time.Second))
		pipe := fx.newPipeOn(t, store, clock)
		published := driveScheduled(t, pipe, clock, diffWindows)
		if published[Cycle10Min] != diffWindows || published[Cycle1Hour] != diffHours {
			t.Fatalf("cycles published over %d hours: %v", diffHours, published)
		}
		return renderReports(t, pipe)
	}
	want, got := run(csv), run(csv.asSketched())
	if !strings.Contains(want, "alerts|") || !strings.Contains(want, "sla|pod/") {
		t.Fatalf("the scheduled cycles published no alert or no pod row:\n%s", want)
	}
	if got != want {
		t.Fatalf("started off the grid, the two upload encodings publish different rows\ncsv:\n%s\npmb1:\n%s", want, got)
	}
}

// TestFoldRetriesUnreadableExtent pins the fold pass's failure contract:
// with every replica down nothing is folded or skipped, the backlog stays
// visible, and the cycle fails with the read error; once
// the store is back the same extents fold and the rows match the oracle.
func TestFoldRetriesUnreadableExtent(t *testing.T) {
	fx := buildDiffFixture(t)
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	pipe := fx.newPipe(t, store)
	sealed := pipe.MaxFoldBacklog()
	if sealed == 0 {
		t.Fatal("fixture sealed no extents")
	}

	setDown := func(down bool) {
		for node := 0; node < 3; node++ {
			if err := store.SetNodeDown(node, down); err != nil {
				t.Fatal(err)
			}
		}
	}
	setDown(true)
	pipe.FoldNow()
	if lag := pipe.ShardLags()[0]; lag.Folded != 0 || lag.Backlog != sealed {
		t.Fatalf("store down: folded %d, backlog %d; want 0 and %d", lag.Folded, lag.Backlog, sealed)
	}
	from, to := window(2)
	if err := pipe.RunTenMinute(from, to); err == nil {
		t.Fatal("cycle over an unreadable store succeeded")
	}

	setDown(false)
	if err := pipe.RunTenMinute(from, to); err != nil {
		t.Fatal(err)
	}
	if lag := pipe.ShardLags()[0]; lag.Folded != uint64(sealed) || lag.Backlog != 0 {
		t.Fatalf("store back: folded %d, backlog %d; want %d and 0", lag.Folded, lag.Backlog, sealed)
	}
	ref := fx.newPipe(t, store)
	oracleCycle(t, ref, Cycle10Min, from, to)
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows after the retry differ from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFoldSkipsWhatItFoldedPastAnUnreadableExtent covers a pass that can
// read only some of what the journal names: one replica per extent and one
// node down. The readable extents fold, the backlog does not clear, and
// once the node is back the next pass folds the rest and nothing twice.
func TestFoldSkipsWhatItFoldedPastAnUnreadableExtent(t *testing.T) {
	fx := buildDiffFixture(t)
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 16 << 10, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx.upload(t, store, fx.inOrder())
	pipe := fx.newPipe(t, store)
	sealed := pipe.MaxFoldBacklog()

	if err := store.SetNodeDown(1, true); err != nil {
		t.Fatal(err)
	}
	pipe.FoldNow()
	lag := pipe.ShardLags()[0]
	if lag.Folded == 0 || lag.Folded >= uint64(sealed) || lag.Backlog == 0 {
		t.Fatalf("one node of three down: folded %d of %d, backlog %d", lag.Folded, sealed, lag.Backlog)
	}
	pipe.FoldNow() // still down: folds nothing new, and nothing again
	if again := pipe.ShardLags()[0]; again.Folded != lag.Folded {
		t.Fatalf("second pass with the node still down folded %d, first %d", again.Folded, lag.Folded)
	}

	if err := store.SetNodeDown(1, false); err != nil {
		t.Fatal(err)
	}
	from, to := window(2)
	if err := pipe.RunTenMinute(from, to); err != nil {
		t.Fatal(err)
	}
	if lag := pipe.ShardLags()[0]; lag.Folded != uint64(sealed) || lag.Backlog != 0 {
		t.Fatalf("node back: folded %d, backlog %d; want %d and 0", lag.Folded, lag.Backlog, sealed)
	}
	ref := fx.newPipe(t, store)
	oracleCycle(t, ref, Cycle10Min, from, to)
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows differ from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFoldLagInFreshnessVerdict: the fold tier's stage is part of the tracer's
// freshness verdict — what /health serves on every port and the staleness
// watchdog pages on. It is stale only while a backlog sits behind a fold older
// than the cycle budget; a folder that never folded, or has nothing waiting, is
// not.
func TestFoldLagInFreshnessVerdict(t *testing.T) {
	fx := buildDiffFixture(t)
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 16 << 10, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx.upload(t, store, fx.inOrder())
	clock := simclock.NewSim(t0)
	tracer := trace.New(clock)
	pipe, err := New(Config{Store: store, Top: fx.top, Clock: clock, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	fold := func() trace.StageHealth {
		t.Helper()
		h := tracer.Freshness().Check()
		last := h.Stages[len(h.Stages)-1]
		if last.Stage != "dsa-fold" || last.Stale != (h.Status == "degraded") {
			t.Fatalf("verdict %+v", h)
		}
		return last
	}
	if sh := fold(); sh.Marked || sh.Stale {
		t.Fatalf("never folded: %+v", sh)
	}
	// One node of three down: the pass folds what it can read and a backlog
	// stays behind it.
	if err := store.SetNodeDown(1, true); err != nil {
		t.Fatal(err)
	}
	pipe.FoldNow()
	clock.Advance(19 * time.Minute)
	if sh := fold(); !sh.Marked || sh.Stale {
		t.Fatalf("backlog inside the budget: %+v", sh)
	}
	clock.Advance(2 * time.Minute)
	if sh := fold(); !sh.Stale || sh.BudgetMs != (20*time.Minute).Milliseconds() {
		t.Fatalf("backlog %d behind a 21-minute-old fold: %+v", pipe.MaxFoldBacklog(), sh)
	}
	if err := store.SetNodeDown(1, false); err != nil {
		t.Fatal(err)
	}
	pipe.FoldNow()
	clock.Advance(time.Hour)
	if sh := fold(); sh.Stale {
		t.Fatalf("nothing waiting: %+v", sh)
	}
}

// BenchmarkFoldPass times one pass of the fold tier over freshly sealed
// extents, through FoldExtents as a cycle and the fold job run it: one extent
// of sketches — a sketched window, which a pass that deals extents folds on
// one core whatever -cpu says — and eight extents of CSV, which it already
// spread; and a pass over the new bytes of an open extent.
func BenchmarkFoldPass(b *testing.B) {
	fx := buildDiffFixture(b)
	for _, bc := range []struct {
		name    string
		batches [][]byte
		extents int
	}{{"extents=1", fx.sketched, 1}, {"extents=8", fx.batches, 8}} {
		b.Run(bc.name, func(b *testing.B) {
			const extentSize = 1 << 20
			store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: extentSize})
			if err != nil {
				b.Fatal(err)
			}
			var exts []scope.Extent
			for i := 0; len(exts) < bc.extents; i++ {
				if err := store.Append(diffStream, bc.batches[i%len(bc.batches)]); err != nil {
					b.Fatal(err)
				}
				if sealed, _ := store.Sealed(diffStream, len(exts)); sealed {
					exts = append(exts, scope.Extent{Stream: diffStream, Index: len(exts)})
				}
			}
			pipe := fx.newPipe(b, store)
			b.SetBytes(int64(bc.extents) * extentSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A pass folds into windows that hold their groups already.
				_, errs := pipe.inc.folder.FoldExtents(store, exts, t0)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	// One extent that stays open: every op appends the next sketched upload
	// batch and runs a fold pass, which folds that batch from the extent's
	// byte cursor on, however long the extent has grown.
	b.Run("open", func(b *testing.B) {
		store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		pipe := fx.newPipe(b, store)
		var bytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := fx.sketched[i%len(fx.sketched)]
			if err := store.Append(diffStream, batch); err != nil {
				b.Fatal(err)
			}
			pipe.FoldNow()
			bytes += int64(len(batch))
		}
		b.SetBytes(bytes / int64(b.N))
		if sealed, _ := store.Sealed(diffStream, 0); sealed || pipe.inc.folder.Scanned() == 0 {
			b.Fatalf("extent sealed (%v) or nothing folded", sealed)
		}
	})
}
