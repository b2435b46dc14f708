package scope

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

// TestFoldChunksEqualWhole is the fold's "split anywhere" law, stated at the
// granularity FoldExtents splits at: mixed extents — CSV documents and PMB1
// batches interleaved, a garbage row, a corrupt batch, a header that cannot be
// skipped — cut into chunks of any size and folded on any number of lanes
// leave exactly what folding each extent whole on one folder leaves:
// partials, tallies, late count, extent count and the sampled traces matched.
func TestFoldChunksEqualWhole(t *testing.T) {
	recs := sketchCorpus(600)
	corrupt := append([]byte("PMB1\x14"), make([]byte, 20)...) // a trusted length over garbage
	var exts [][]byte
	var sampled []probe.Record
	for e := 0; e < 3; e++ {
		var data []byte
		for i := e * 200; i < (e+1)*200; i += 20 {
			data = probe.AppendBatch(data, recs[i:i+10])
			raw, sks := buildSketches(recs[i+10 : i+20])
			data = probe.AppendBinaryBatch(data, raw, sks)
			if i%100 == 0 {
				data = append(append(data, "not,a,record\n"...), corrupt...)
				sampled = append(sampled, recs[i])
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
	newFolder := func() *Folder {
		f := NewFolder(t0, Every10Min, foldSpecs(), tracer)
		// The first half hour is published already: what folds there is late.
		f.DropWindowsBefore("all", f.WindowOf("all", t0.Add(30*time.Minute)))
		return f
	}
	now := t0.Add(8 * time.Hour)
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

	for _, size := range []int{1, 4 << 10, foldChunkSize, 1 << 30} {
		var chunks []foldChunk
		for _, data := range exts {
			chunks = appendChunks(chunks, data, size, true)
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
			for _, sp := range foldSpecs() {
				for win := int64(-1); win <= f.WindowOf(sp.Name, now); win++ {
					if !reflect.DeepEqual(f.Partial(sp.Name, win), whole.Partial(sp.Name, win)) {
						t.Fatalf("%s: %s window %d differs from the whole fold", name, sp.Name, win)
					}
				}
			}
		}
	}
}

// TestFoldExtentsResumesAtCursor: folding an open extent as it grows, each
// time from where the last fold ended, and then its remainder once it is
// final leaves exactly what one fold of the whole extent leaves and counts it
// folded once; a read shorter than the cursor is an error, not a fold.
func TestFoldExtentsResumesAtCursor(t *testing.T) {
	store, err := cosmos.NewStore(2, cosmos.Config{ExtentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	recs := sketchCorpus(600)
	now := t0.Add(8 * time.Hour)
	f := NewFolder(t0, Every10Min, foldSpecs(), nil)
	fold := func(ext Extent) int {
		t.Helper()
		ends, errs := f.FoldExtents(store, []Extent{ext}, now)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		return ends[0]
	}
	from := 0
	for i := 0; i < len(recs); i += 20 {
		raw, sks := buildSketches(recs[i+10 : i+20])
		if err := store.Append("s", probe.AppendBinaryBatch(probe.AppendBatch(nil, recs[i:i+10]), raw, sks)); err != nil {
			t.Fatal(err)
		}
		from = fold(Extent{Stream: "s", From: from, Open: true})
		if i%100 == 0 {
			from = fold(Extent{Stream: "s", From: from, Open: true}) // nothing new
		}
	}
	if f.Extents() != 0 {
		t.Fatalf("an open extent was counted folded %d times", f.Extents())
	}
	if end := fold(Extent{Stream: "s", From: from}); end != from {
		t.Fatalf("the final fold ended at %d, the cursor was at %d", end, from)
	}

	data, err := store.ReadExtent("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := NewFolder(t0, Every10Min, foldSpecs(), nil)
	whole.FoldExtent(data, now)
	if f.Scanned() != whole.Scanned() || f.Extents() != 1 || f.Scanned() != uint64(len(recs)) {
		t.Fatalf("scanned %d, %d extents; one whole fold scans %d", f.Scanned(), f.Extents(), whole.Scanned())
	}
	for _, sp := range foldSpecs() {
		for win := int64(-1); win <= f.WindowOf(sp.Name, now); win++ {
			if !reflect.DeepEqual(f.Partial(sp.Name, win), whole.Partial(sp.Name, win)) {
				t.Fatalf("%s window %d differs from the whole fold", sp.Name, win)
			}
		}
	}
	if _, errs := f.FoldExtents(store, []Extent{{Stream: "s", From: len(data) + 1}}, now); errs[0] == nil {
		t.Fatal("a cursor past the readable bytes folded")
	}
}
