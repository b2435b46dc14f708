package uploadsim

import "testing"

// TestRunSmallDifferential runs the harness at reduced scale (the CI smoke
// configuration) and asserts the PR's acceptance bars: >= 20x upload-byte
// reduction, P50/P99 within one bucket of the exact pipeline, and SLA row
// parity through the DSA fold path.
func TestRunSmallDifferential(t *testing.T) {
	rep, err := Run(Config{
		Servers:       2000,
		Peers:         4,
		ProbesPerPeer: 30,
		ExtentSize:    256 << 10,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != rep.Servers*4*30 {
		t.Fatalf("records = %d, want %d", rep.Records, rep.Servers*4*30)
	}
	if rep.Sketches == 0 || rep.RawShipped == 0 {
		t.Fatalf("degenerate split: %d sketches, %d raw", rep.Sketches, rep.RawShipped)
	}
	// The anomaly share must stay small, or sketching buys nothing.
	if frac := float64(rep.RawShipped) / float64(rep.Records); frac > 0.05 {
		t.Fatalf("%.1f%% of records shipped raw — anomaly policy too loose", frac*100)
	}
	if rep.ByteReduction < 20 {
		t.Fatalf("upload-byte reduction %.1fx, acceptance floor is 20x (csv %d, binary %d)",
			rep.ByteReduction, rep.CSVBytes, rep.BinaryBytes)
	}
	if !rep.WithinOneBucket {
		t.Fatalf("percentiles drifted past one bucket: %+v", rep.Classes)
	}
	if len(rep.Classes) < 2 {
		t.Fatalf("want intra-DC and inter-DC rows, got %+v", rep.Classes)
	}
	for _, row := range rep.Classes {
		// Same bucket layout on both sides: the percentiles are not just
		// close, they are bit-identical.
		if row.ExactP50NS != row.SketchP50NS || row.ExactP99NS != row.SketchP99NS {
			t.Fatalf("class %s percentiles not bucket-identical: %+v", row.Class, row)
		}
	}
	if rep.DropRateExact != rep.DropRateSketch {
		t.Fatalf("drop rate diverged: %v vs %v", rep.DropRateExact, rep.DropRateSketch)
	}
	if !rep.SLAParity {
		t.Fatalf("SLA parity broken: %d raw rows, %d sketch rows", rep.SLARowsExact, rep.SLARowsSketch)
	}
}
