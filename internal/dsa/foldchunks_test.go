package dsa

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

// TestFoldChunksEqualWhole is the fold tier's "split anywhere" law, stated at
// the granularity the tier splits at: mixed extents — CSV documents and PMB1
// batches interleaved, a garbage row, a corrupt batch, a header that cannot be
// skipped — cut into chunks of any size and folded on any number of lanes
// leave the production job table exactly what folding each extent whole on one
// folder leaves: partials, tallies, late count, extent count and the sampled
// traces matched.
func TestFoldChunksEqualWhole(t *testing.T) {
	fx := buildDiffFixture(t)
	pipe := fx.newPipe(t, fx.newStore(t))
	specs := make([]scope.FoldSpec, len(pipe.jobs))
	for i := range pipe.jobs {
		specs[i] = pipe.jobs[i].spec
	}

	corrupt := append([]byte("PMB1\x14"), make([]byte, 20)...) // a trusted length over garbage
	var exts [][]byte
	var sampled []probe.Record
	for e := 0; e < 3; e++ {
		var data []byte
		for i := e; i < 60; i += 3 {
			data = append(data, fx.batches[i]...)
			data = append(data, fx.sketched[i]...)
			if i%15 == 0 {
				data = append(append(data, "not,a,record\n"...), corrupt...)
				recs, _ := probe.DecodeBatch(fx.batches[i])
				sampled = append(sampled, recs[0])
			}
		}
		exts = append(exts, data)
	}
	exts[2] = append(exts[2], "PMB1\xff and whatever follows it"...)

	tracer := trace.New(simclock.NewSim(t0))
	for i := range sampled {
		r := &sampled[i]
		tracer.RegisterProbe(trace.TraceID(i+1), r.Src, r.SrcPort, r.Start.UnixNano())
	}
	sla := pipe.jobsOf(Cycle10Min)[0].spec.Name
	newFolder := func() *scope.Folder {
		f := scope.NewFolder(time.Unix(0, 0).UTC(), scope.Every10Min, specs, tracer)
		// The first half hour is published already: what folds there is late.
		f.DropWindowsBefore(sla, f.WindowOf(sla, t0.Add(30*time.Minute)))
		return f
	}
	now := t0.Add(diffHours * time.Hour)
	whole := newFolder()
	for _, data := range exts {
		whole.FoldExtent(data, now)
	}
	wantTraces := whole.TakeTraces()
	slices.Sort(wantTraces)
	if whole.ParseErrors() < 3 || whole.Late() == 0 || len(wantTraces) != len(sampled) {
		t.Fatalf("fixture folds %d parse errors, %d late records, %d of %d sampled traces",
			whole.ParseErrors(), whole.Late(), len(wantTraces), len(sampled))
	}

	for _, size := range []int{1, 4 << 10, 64 << 10, 1 << 30} {
		var chunks []foldChunk
		for _, data := range exts {
			chunks = appendChunks(chunks, data, size)
		}
		if size == 1<<30 && len(chunks) != len(exts) {
			t.Fatalf("%d extents left whole are %d chunks", len(exts), len(chunks))
		}
		for _, lanes := range []int{1, 2, 4} {
			f := newFolder()
			foldChunks(f, chunks, lanes, now)
			name := fmt.Sprintf("%d chunks of %d bytes on %d lanes", len(chunks), size, lanes)
			if f.Scanned() != whole.Scanned() || f.ParseErrors() != whole.ParseErrors() || f.Late() != whole.Late() ||
				f.Extents() != whole.Extents() || !f.LastFold().Equal(now) {
				t.Fatalf("%s: scanned/errors/late/extents %d/%d/%d/%d, want %d/%d/%d/%d", name, f.Scanned(), f.ParseErrors(),
					f.Late(), f.Extents(), whole.Scanned(), whole.ParseErrors(), whole.Late(), whole.Extents())
			}
			got := f.TakeTraces()
			slices.Sort(got)
			if !slices.Equal(got, wantTraces) {
				t.Fatalf("%s: matched traces %v, want %v", name, got, wantTraces)
			}
			for _, sp := range specs {
				for win := f.WindowOf(sp.Name, t0) - 1; win <= f.WindowOf(sp.Name, now); win++ {
					if !reflect.DeepEqual(f.Partial(sp.Name, win), whole.Partial(sp.Name, win)) {
						t.Fatalf("%s: %s window %d differs from the whole fold", name, sp.Name, win)
					}
				}
			}
		}
	}
}

// BenchmarkFoldPass times one pass of the fold tier over freshly sealed
// extents, through foldInto as a cycle and the fold job run it: one extent of
// sketches — a sketched window, which a pass that deals extents folds on one
// core whatever -cpu says — and eight extents of CSV, which it already spread.
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
				for _, err := range pipe.inc.foldInto(pipe.inc.folder, exts, t0) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
