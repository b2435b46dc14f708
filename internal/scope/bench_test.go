package scope

import (
	"testing"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
)

func BenchmarkEngineRun(b *testing.B) {
	store := seedStoreB(b, 50000)
	e := &Engine{}
	job := Job{
		Name:     "bench",
		Source:   Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return r.Src.AppendTo(dst), true },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(job)
		if err != nil {
			b.Fatal(err)
		}
		if res.Records != 50000 {
			b.Fatalf("records = %d", res.Records)
		}
	}
	b.ReportMetric(50000, "records")
}

// BenchmarkScopeRun is the streaming counterpart of BenchmarkEngineRun:
// the same 50k-record store, grouped by source address, but through the
// KeyBytes path so the workers never materialize record slices or key
// strings. The gap between the two benchmarks is the cost of the legacy
// string-keyed API.
func BenchmarkScopeRun(b *testing.B) {
	store := seedStoreB(b, 50000)
	var bytes int64
	for i := 0; ; i++ {
		ext, err := store.ReadExtent("pingmesh/bench", i)
		if err != nil {
			break
		}
		bytes += int64(len(ext))
	}
	e := &Engine{}
	job := Job{
		Name:   "bench-stream",
		Source: Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
			return r.Src.AppendTo(dst), true
		},
	}
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(job)
		if err != nil {
			b.Fatal(err)
		}
		if res.Records != 50000 {
			b.Fatalf("records = %d", res.Records)
		}
	}
	b.ReportMetric(50000, "records")
}

func seedStoreB(b *testing.B, n int) *cosmos.Store {
	b.Helper()
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 128 << 10})
	if err != nil {
		b.Fatal(err)
	}
	var batch []probe.Record
	for i := 0; i < n; i++ {
		batch = append(batch, mkRecord(i, 300*time.Microsecond, ""))
		if len(batch) == 1000 {
			if err := store.Append("pingmesh/bench", probe.EncodeBatch(batch)); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := store.Append("pingmesh/bench", probe.EncodeBatch(batch)); err != nil {
			b.Fatal(err)
		}
	}
	return store
}
