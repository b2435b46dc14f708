package scope

import (
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
)

// TestRunAllReplicasDown is the deadlock regression test: when every
// storage node is down, every worker fails its first ReadExtent and
// returns early. With an unbuffered task channel the Run send loop used to
// block forever once all workers had exited; it must instead surface the
// read error promptly.
func TestRunAllReplicasDown(t *testing.T) {
	store := seedStore(t, 100) // many extents (512-byte extent size)
	for id := 0; id < 3; id++ {
		if err := store.SetNodeDown(id, true); err != nil {
			t.Fatal(err)
		}
	}
	e := &Engine{Parallelism: 2}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(Job{Name: "alldown", Source: Source{Store: store, StreamPrefix: "pingmesh/"}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded with every replica down")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked with every replica down")
	}
}

// TestKeyBytesSkips: a keyer that rejects everything aggregates nothing.
func TestKeyBytesSkips(t *testing.T) {
	store := seedStore(t, 60)
	res, err := (&Engine{}).Run(Job{
		Name:     "skippy-bytes",
		Source:   Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return dst, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || res.Scanned != 60 {
		t.Fatalf("Records=%d Scanned=%d", res.Records, res.Scanned)
	}
}

// TestProcessExtentZeroAlloc is the strict allocs/op guard on the worker
// inner loop: once the group set and intern tables are warm, streaming an
// extent through the sink must not allocate per record.
func TestProcessExtentZeroAlloc(t *testing.T) {
	const n = 2048
	recs := make([]probe.Record, n)
	for i := range recs {
		recs[i] = mkRecord(i, time.Duration(200+i%50)*time.Microsecond, "")
		if i%11 == 0 {
			recs[i].Err = "connect timeout"
		}
	}
	data := probe.EncodeBatch(recs)
	job := &Job{
		Name: "alloc-guard",
		From: t0, To: t0.Add(time.Duration(n) * time.Minute),
		Where:    func(r *probe.Record) bool { return true },
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return r.Src.AppendTo(dst), true },
	}
	sink := extentSink{job: job, res: &Result{Groups: make(map[string]*analysis.LatencyStats)}}
	sink.process(data) // warm: groups + key buffer + intern table
	avg := testing.AllocsPerRun(20, func() { sink.process(data) })
	perRecord := avg / n
	if perRecord > 0.01 {
		t.Fatalf("worker loop allocates %.4f allocs/record (%.1f per %d-record extent), want ~0",
			perRecord, avg, n)
	}
}

// TestScopeRunZeroAllocAmortized guards the whole Engine.Run path: over a
// 50k-record store the per-run scaffolding (channels, goroutines, maps)
// must stay constant, i.e. amortized allocations per record ~0.
func TestScopeRunZeroAllocAmortized(t *testing.T) {
	const n = 50000
	store := seedStoreN(t, n)
	e := &Engine{Parallelism: 1}
	job := Job{
		Name:     "amortized",
		Source:   Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return r.Src.AppendTo(dst), true },
	}
	run := func() {
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != n {
			t.Fatalf("records = %d", res.Records)
		}
	}
	run() // warm
	avg := testing.AllocsPerRun(5, run)
	if perRecord := avg / n; perRecord > 0.05 {
		t.Fatalf("Engine.Run allocates %.4f allocs/record (%.0f total), want ~0 per record", perRecord, avg)
	}
}

// seedStoreN seeds one stream with n records in 1000-record batches (the
// bench/guard shape: few streams, sealed extents, realistic batch headers).
func seedStoreN(tb testing.TB, n int) *cosmos.Store {
	tb.Helper()
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 128 << 10})
	if err != nil {
		tb.Fatal(err)
	}
	var batch []probe.Record
	for i := 0; i < n; i++ {
		batch = append(batch, mkRecord(i, 300*time.Microsecond, ""))
		if len(batch) == 1000 {
			if err := store.Append("pingmesh/bench", probe.EncodeBatch(batch)); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := store.Append("pingmesh/bench", probe.EncodeBatch(batch)); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}
