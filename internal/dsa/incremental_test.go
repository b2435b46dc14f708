package dsa

import (
	"fmt"
	"math/rand"
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
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// diffFixture is one hour of probes from a two-DC fleet (with one podset
// degraded so alerts fire), kept as encoded batches so trials can replay
// them in randomized upload orders.
type diffFixture struct {
	top        *topology.Topology
	services   []*analysis.Service
	batches    [][]byte // CSV, 32 records a batch
	extentSize int      // small enough that batches seals many extents

	// sketched is the same records the way a sketch-mode agent uploads
	// them: one PMB1 batch per server per 10-minute window, healthy probes
	// folded into per-peer sketches, anomalies raw.
	sketched [][]byte
}

// asSketched returns the fixture with the PMB1 encoding as its batches.
func (fx *diffFixture) asSketched() *diffFixture {
	sk := *fx
	sk.batches, sk.extentSize = fx.sketched, 1<<10
	return &sk
}

func buildDiffFixture(t *testing.T) *diffFixture {
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
	err = runner.Run(t0, t0.Add(time.Hour), func(src topology.ServerID, recs []probe.Record) {
		if accs[src] == nil {
			accs[src] = agent.NewSketchAccumulator(top.Server(src).Addr, 10*time.Minute)
		}
		for i := range recs {
			// The agent's raw/anomaly policy (Agent.record) at its default
			// RawThreshold of one second.
			r := &recs[i]
			if r.Success() && r.RTT < time.Second && analysis.DropSignature(r.RTT) == 0 {
				accs[src].Observe(r)
			} else {
				w := r.Start.Sub(t0) / (10 * time.Minute)
				raw[src][w] = append(raw[src][w], *r)
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
	})
	if err != nil {
		t.Fatal(err)
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

const diffStream = "pingmesh/2026-07-01"

// diffWindows is the fixture's hour in 10-minute cycles.
const diffWindows = 6

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

func (fx *diffFixture) newPipe(t *testing.T, store *cosmos.Store) *Pipeline {
	t.Helper()
	pipe, err := New(Config{
		Store:    store,
		Top:      fx.top,
		Clock:    simclock.NewSim(t0),
		Services: fx.services,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// oracleCycle publishes [from, to) through the scan executor — one
// scope.Engine.Run per entry of the job table — whether or not the window
// is on the grid: the reference the fold tier is compared against.
func oracleCycle(t *testing.T, p *Pipeline, from, to time.Time) {
	t.Helper()
	cy := p.beginCycle()
	results, err := p.scanJobs(from, to)
	if err != nil {
		t.Fatal(err)
	}
	p.publishTenMinute(&cy, results, from, to)
}

func window(w int) (from, to time.Time) {
	from = t0.Add(time.Duration(w) * 10 * time.Minute)
	return from, from.Add(10 * time.Minute)
}

func offGridRescans(p *Pipeline) int64 { return p.JobMetrics()["dsa.cycle.offgrid_rescans"] }

// renderReports renders the pipeline's SLA and alert rows canonically
// (sorted; map iteration randomizes insertion order in both pipelines).
func renderReports(t *testing.T, p *Pipeline) string {
	t.Helper()
	var lines []string
	slaRows, err := p.DB().Query(TableSLA)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range slaRows {
		lines = append(lines, fmt.Sprintf("sla|%v|%v|%v|%v|%v|%v|%v|%v",
			r["scope"], r["window_start"], r["window_end"], r["probes"],
			r["p50"], r["p99"], r["drop_rate"], r["failure_rate"]))
	}
	alertRows, err := p.DB().Query(TableAlerts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range alertRows {
		lines = append(lines, fmt.Sprintf("alert|%v|%v|%v|%v|%v",
			r["scope"], r["at"], r["reason"], r["drop_rate"], r["p99"]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestIncrementalMatchesFullScanDifferential pins the tentpole invariant:
// for randomized upload orders, with uploads, fold passes and cycles
// interleaved so that every cycle sees folded extents, sealed-but-unfolded
// extents, an open tail and late records for already published windows,
// 10-minute cycles served from folded partials produce report rows
// byte-identical to the scan executor over the same store state.
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

// foldedReports uploads every batch, folds, publishes the hour's six
// cycles from the partials and returns the rendered rows and the bytes
// uploaded.
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
	if lag, n := pipe.ShardLags()[0], offGridRescans(pipe); lag.Folded == 0 || n != 0 {
		t.Fatalf("rows not served from folds: %d extents folded, %d re-scans", lag.Folded, n)
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
			oracleCycle(t, ref, from, to)
		}

		want := renderReports(t, ref)
		if !strings.Contains(want, "sla|dc/DC1") || !strings.Contains(want, "sla|interdc/") ||
			!strings.Contains(want, "sla|service/search") || !strings.Contains(want, "alert|") {
			t.Fatalf("reference reports not exercising all row families:\n%s", want)
		}
		if got := renderReports(t, pipe); got != want {
			t.Fatalf("trial %d: incremental reports differ from the scan\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		lag := pipe.ShardLags()[0]
		if lag.Folded == 0 || lag.Backlog != 0 {
			t.Fatalf("trial %d: folded %d extents, backlog %d after cycles", trial, lag.Folded, lag.Backlog)
		}
		if n := offGridRescans(pipe); n != 0 {
			t.Fatalf("trial %d: %d aligned cycles were re-scanned", trial, n)
		}
	}
}

// TestIncrementalFallsBackOffGrid pins the fallback contract: a window that
// is not one grid-aligned fold window, or one whose partials were already
// dropped, is served by the scan, counted in dsa.cycle.offgrid_rescans, and
// matches the oracle exactly.
func TestIncrementalFallsBackOffGrid(t *testing.T) {
	fx := buildDiffFixture(t)
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	pipe := fx.newPipe(t, store)
	ref := fx.newPipe(t, store)

	// The full hour is 6 windows wide: off-grid for the 10-minute folder.
	if err := pipe.RunTenMinute(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	oracleCycle(t, ref, t0, t0.Add(time.Hour))
	if n, folded := offGridRescans(pipe), pipe.ShardLags()[0].Folded; n != 1 || folded != 0 {
		t.Fatalf("off-grid hour: %d rescans counted, %d extents folded; want 1 and 0", n, folded)
	}

	// Publishing window 3 drops the partials of windows 0-2.
	for _, w := range []int{3, 1} {
		from, to := window(w)
		if err := pipe.RunTenMinute(from, to); err != nil {
			t.Fatal(err)
		}
		oracleCycle(t, ref, from, to)
	}
	if n := offGridRescans(pipe); n != 2 {
		t.Fatalf("%d rescans counted after a dropped window, want 2", n)
	}
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("off-grid windows diverged\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestZeroValueConfigFolds pins that the fold tier needs no opt-in: a
// pipeline built from nothing but a store and a topology serves a
// grid-aligned cycle from folded extents, without the scan.
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

	// The grid anchors at the wall clock; pick the grid window holding the
	// fixture's 20th minute.
	anchor := pipe.inc.folder.Anchor
	from := anchor.Add(t0.Add(20*time.Minute).Sub(anchor).Truncate(10*time.Minute) - 10*time.Minute)
	to := from.Add(10 * time.Minute)
	if err := pipe.RunTenMinute(from, to); err != nil {
		t.Fatal(err)
	}
	oracleCycle(t, ref, from, to)
	if n, folded := offGridRescans(pipe), pipe.ShardLags()[0].Folded; n != 0 || folded == 0 {
		t.Fatalf("aligned cycle: %d rescans, %d extents folded; want 0 and > 0", n, folded)
	}
	got, want := renderReports(t, pipe), renderReports(t, ref)
	if got != want || !strings.Contains(want, "sla|dc/DC1") {
		t.Fatalf("zero-value pipeline diverged from the scan\nwant:\n%s\ngot:\n%s", want, got)
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
	if n := pipe.JobMetrics()["dsa.fold.extents_folded"]; uint64(n) != sealed {
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
		oracleCycle(t, ref, from, to)
	}
	if n := offGridRescans(pipe); n != 0 {
		t.Fatalf("%d aligned cycles were re-scanned", n)
	}
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows after concurrent folding differ from the scan\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestIncrementalScheduledPipeline drives the pipeline through the job
// manager on the sim clock: cycles must be served from partials (no
// residual backlog), publish SLA rows, and surface the fold counter.
func TestIncrementalScheduledPipeline(t *testing.T) {
	fx := buildDiffFixture(t)
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	clock := simclock.NewSim(t0)
	pipe, err := New(Config{
		Store:    store,
		Top:      fx.top,
		Clock:    clock,
		Services: fx.services,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	defer pipe.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		clock.Advance(time.Minute)
		if pipe.JobMetrics()["scope.job.10min.runs"] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("10min job never ran twice: %v", pipe.JobMetrics())
		}
		time.Sleep(time.Millisecond)
	}
	rows, err := pipe.DB().Query(TableSLA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("scheduled incremental cycles published no SLA rows")
	}
	counters := pipe.JobMetrics()
	if counters["dsa.fold.extents_folded"] == 0 {
		t.Fatalf("no extents folded by the scheduled pipeline: %v", counters)
	}
	if counters["dsa.cycle.offgrid_rescans"] != 0 {
		t.Fatalf("scheduled cycles were re-scanned: %v", counters)
	}
	if pipe.MaxFoldBacklog() != 0 {
		t.Fatalf("fold backlog %d after cycles", pipe.MaxFoldBacklog())
	}
}

// TestFoldRetriesUnreadableExtent pins the fold pass's failure contract:
// with every replica down nothing is folded or skipped, the backlog stays
// visible, and the cycle fails with the read error a scan would hit; once
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
	oracleCycle(t, ref, from, to)
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows after the retry differ from the scan\nwant:\n%s\ngot:\n%s", want, got)
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
	oracleCycle(t, ref, from, to)
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows differ from the scan\nwant:\n%s\ngot:\n%s", want, got)
	}
}
