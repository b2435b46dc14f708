package scope

import (
	"testing"

	"pingmesh/internal/probe"
)

// BenchmarkScopeRun measures an ad-hoc job end to end: a 50k-record store,
// grouped by source address through the KeyBytes path, folded by one span
// folder on GOMAXPROCS lanes.
func BenchmarkScopeRun(b *testing.B) {
	store := seedStoreN(b, 50000)
	var bytes int64
	for i := 0; ; i++ {
		ext, err := store.ReadExtent("pingmesh/bench", i)
		if err != nil {
			break
		}
		bytes += int64(len(ext))
	}
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
		res, err := Run(job)
		if err != nil {
			b.Fatal(err)
		}
		if res.Records != 50000 {
			b.Fatalf("records = %d", res.Records)
		}
	}
	b.ReportMetric(50000, "records")
}
