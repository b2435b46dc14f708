package scope

import (
	"testing"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
)

// TestRunAllReplicasDown is the deadlock regression test: when every
// storage node is down, no extent can be read. The job must surface the read
// error promptly, not hang waiting for lanes that have nothing to fold.
func TestRunAllReplicasDown(t *testing.T) {
	store := seedStore(t, 100) // many extents (512-byte extent size)
	for id := 0; id < 3; id++ {
		if err := store.SetNodeDown(id, true); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(Job{Name: "alldown", Source: Source{Store: store, StreamPrefix: "pingmesh/"}})
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
	res := runJob(t, Job{
		Name:     "skippy-bytes",
		Source:   Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return dst, false },
	})
	if res.Records != 0 || res.Scanned != 60 {
		t.Fatalf("Records=%d Scanned=%d", res.Records, res.Scanned)
	}
}

// TestScopeRunZeroAllocAmortized guards the whole Run path: over a
// 50k-record store spread over 50k minutes the per-run scaffolding (the span
// folder, its lanes, one partial per group) must stay constant, i.e.
// amortized allocations per record ~0.
func TestScopeRunZeroAllocAmortized(t *testing.T) {
	const n = 50000
	store := seedStoreN(t, n)
	job := Job{
		Name:     "amortized",
		Source:   Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return r.Src.AppendTo(dst), true },
	}
	run := func() {
		res, err := Run(job)
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
		t.Fatalf("Run allocates %.4f allocs/record (%.0f total), want ~0 per record", perRecord, avg)
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
