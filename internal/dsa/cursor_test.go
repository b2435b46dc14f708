package dsa

import (
	"fmt"
	"testing"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/scope"
)

// wholeScan is what one fold of every extent under the pipeline's prefix
// scans, counted by a span fold of its own.
func wholeScan(t *testing.T, p *Pipeline) uint64 {
	t.Helper()
	res, err := scope.Run(scope.Job{Name: "whole", Source: scope.Source{Store: p.cfg.Store, StreamPrefix: streamPrefix}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Scanned
}

// checkDaily serves the daily jobs over the fixture's span from the folded
// partials — a cycle on the grid, which runs a fold pass first — and
// compares them, group by group, with the oracle over ref's store, and each
// job's Scanned with one whole fold of pipe's store.
func checkDaily(t *testing.T, what string, pipe, ref *Pipeline) {
	t.Helper()
	day := t0.Add(diffHours * time.Hour)
	jobs := pipe.jobsOf(Cycle1Day)
	cy := pipe.beginCycle()
	got, err := pipe.inc.serve(&cy, Cycle1Day, jobs, t0, day)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := oracleResults(t, ref, ref.jobsOf(Cycle1Day), t0, day)
	if got, want := renderResults(jobs, got), renderResults(jobs, want); got != want {
		t.Fatalf("%s: daily aggregates differ from the oracle\nwant:\n%s\ngot:\n%s", what, want, got)
	}
	scanned := wholeScan(t, pipe)
	for i, res := range got {
		if res.Scanned != scanned {
			t.Fatalf("%s: %s scanned %d records, one whole fold scans %d", what, jobs[i].spec.Name, res.Scanned, scanned)
		}
	}
}

// TestOpenExtentFoldedBehindCursor appends the sketched fixture a batch at
// a time, and after every batch runs a fold pass, a cycle, or both: each
// pass folds only the bytes past the extent's cursor, and the aggregates
// must still equal the oracle and the records scanned one whole fold. The
// first extent seals two thirds of the way in, so its remainder is folded
// once and it is counted folded once; the second stays open to the end
// and is never counted.
func TestOpenExtentFoldedBehindCursor(t *testing.T) {
	fx := buildDiffFixture(t).asSketched()
	total := 0
	for _, b := range fx.batches {
		total += len(b)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 2 * total / 3})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ref := fx.newPipe(t, store), fx.newPipe(t, store)
	for i, b := range fx.batches {
		if err := store.Append(diffStream, b); err != nil {
			t.Fatal(err)
		}
		if i%3 != 1 {
			pipe.FoldNow()
		}
		if i%3 != 0 {
			checkDaily(t, fmt.Sprintf("after batch %d", i), pipe, ref)
		}
	}
	checkDaily(t, "after every batch", pipe, ref)
	if n := store.NumExtents(diffStream); n != 2 || store.SealedFrom(diffStream) != 1 {
		t.Fatalf("%d extents, %d sealed; want 2 and 1", n, store.SealedFrom(diffStream))
	}
	if folded := pipe.ShardLags()[0].Folded; folded != 1 || pipe.JobRegistry().Snapshot().Counters["dsa.fold.extents_folded"] != 1 {
		t.Fatalf("%d extents counted folded (metric %d), want the sealed one once", folded, pipe.JobRegistry().Snapshot().Counters["dsa.fold.extents_folded"])
	}
}

// TestCursorSurvivesLosingItsReplica folds part of an open extent, takes
// down the node that served the read, keeps appending — the replica on that
// node misses the writes and is fenced — and folds on from the replicas
// left, until the extent seals: every acknowledged batch is folded exactly
// once, against a reference store that lost nothing.
func TestCursorSurvivesLosingItsReplica(t *testing.T) {
	fx := buildDiffFixture(t).asSketched()
	total := 0
	for _, b := range fx.batches {
		total += len(b)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: total})
	if err != nil {
		t.Fatal(err)
	}
	refStore := fx.newStore(t)
	pipe, ref := fx.newPipe(t, store), fx.newPipe(t, refStore)
	upload := func(batches [][]byte) {
		t.Helper()
		for _, b := range batches {
			if err := store.Append(diffStream, b); err != nil {
				t.Fatal(err)
			}
			if err := refStore.Append(diffStream, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	third := len(fx.batches) / 3
	upload(fx.batches[:third])
	pipe.FoldNow() // extent 0's replicas are on nodes 0-2; node 0 serves the read
	if err := store.SetNodeDown(0, true); err != nil {
		t.Fatal(err)
	}
	upload(fx.batches[third : 2*third])
	checkDaily(t, "node 0 down", pipe, ref)
	if err := store.SetNodeDown(0, false); err != nil {
		t.Fatal(err)
	}
	upload(fx.batches[2*third:])
	if sealed, _ := store.Sealed(diffStream, 0); !sealed {
		t.Fatal("the fixture did not seal extent 0")
	}
	checkDaily(t, "node 0 back, extent 0 sealed", pipe, ref)
	if folded := pipe.ShardLags()[0].Folded; folded != 1 {
		t.Fatalf("extent 0 counted folded %d times", folded)
	}
}

// TestNoLateRecordsAcrossAnOpenTail: uploads on time — each window's
// batches before its cycle — published while they still sit in the open
// extent, and folded from there, are not late when that extent seals an
// hour later. A fold that decoded the sealed extent again would count every
// hour-0 record in it late, the hour's partials being dropped once
// published.
func TestNoLateRecordsAcrossAnOpenTail(t *testing.T) {
	fx := buildDiffFixture(t).asSketched()
	// The sketched fixture is one batch per server and window, server-major.
	windowOf := func(i int) int { return i % diffWindows }
	hourBytes := [diffHours]int{}
	for i, b := range fx.batches {
		hourBytes[windowOf(i)/6] += len(b)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: hourBytes[0] + hourBytes[1]/2})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ref := fx.newPipe(t, store), fx.newPipe(t, store)
	for w := 0; w < diffWindows; w++ {
		for i, b := range fx.batches {
			if windowOf(i) == w {
				if err := store.Append(diffStream, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		from, to := window(w)
		if err := pipe.RunTenMinute(from, to); err != nil {
			t.Fatal(err)
		}
		oracleCycle(t, ref, Cycle10Min, from, to)
		if (w+1)%6 == 0 {
			if sealed, _ := store.Sealed(diffStream, 0); w == 5 && sealed {
				t.Fatal("extent 0 sealed within hour 0: the hourly publish has no open tail")
			}
			from, to := hour(w / 6)
			if err := pipe.RunHourly(from, to); err != nil {
				t.Fatal(err)
			}
			oracleCycle(t, ref, Cycle1Hour, from, to)
		}
	}
	pipe.FoldNow()
	if folded := pipe.ShardLags()[0].Folded; folded == 0 {
		t.Fatal("extent 0 never sealed")
	}
	if n := pipe.JobRegistry().Snapshot().Counters["dsa.fold.late_records"]; n != 0 {
		t.Fatalf("dsa.fold.late_records = %d with every upload on time", n)
	}
	if got, want := renderReports(t, pipe), renderReports(t, ref); got != want {
		t.Fatalf("rows differ from the oracle\nwant:\n%s\ngot:\n%s", want, got)
	}
}
