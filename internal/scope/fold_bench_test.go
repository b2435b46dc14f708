package scope

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"pingmesh/internal/probe"
)

// BenchmarkFoldExtent measures the fold hot path: decoding an extent and
// summing every record into per-(spec, window) partials. This per-record
// cost times the background tier; the cycle itself only merges. runs holds
// the records peer by peer, as the simulated fleet uploads them, so most
// reuse the resolution of the one before; interleaved holds the same
// records with no two of a peer in a row, as a live agent's scheduler
// interleaves them, so every record resolves.
func BenchmarkFoldExtent(b *testing.B) {
	const n = 512
	recs := make([]probe.Record, 0, n)
	for i := 0; i < n; i++ {
		errStr := ""
		if i%101 == 0 {
			errStr = "connect: timeout"
		}
		recs = append(recs, mkRecord(i%30, time.Duration(150+i*7)*time.Microsecond, errStr))
	}
	runs := slices.Clone(recs)
	slices.SortStableFunc(runs, func(x, y probe.Record) int {
		return cmp.Or(x.Src.Compare(y.Src), x.Start.Compare(y.Start))
	})
	for _, bc := range []struct {
		name string
		recs []probe.Record
	}{{"runs", runs}, {"interleaved", recs}} {
		b.Run(bc.name, func(b *testing.B) {
			f := NewFolder(t0, Every10Min, foldSpecs(), nil)
			data := probe.EncodeBatch(bc.recs)
			f.FoldExtent(data, t0) // materialize groups, windows, key buffer
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.FoldExtent(data, t0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}

// BenchmarkPartialMerge measures the cycle-side cost: merging one shard's
// window partial into the accumulating result.
func BenchmarkPartialMerge(b *testing.B) {
	f := NewFolder(t0, Every10Min, foldSpecs(), nil)
	for _, data := range foldExtents(300) {
		f.FoldExtent(data, t0)
	}
	part := f.Partial("ok-by-srcnet", 0)
	if part == nil {
		b.Fatal("no partial in window 0")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPartial()
		m.Merge(part)
		m.Merge(part)
	}
}
