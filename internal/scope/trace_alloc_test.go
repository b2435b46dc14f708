package scope

import (
	"testing"
	"time"

	"pingmesh/internal/probe"
	"pingmesh/internal/trace"
)

// TestIngestTraceUnsampledZeroAlloc guards the ingest side of the tracing
// overhead claim: a folder with a tracer attached but no sampled probes in
// flight pays one atomic load per record (the HasActiveProbes gate) and
// nothing else — allocs/record stay at the PR-2 floor (CI tier 3).
func TestIngestTraceUnsampledZeroAlloc(t *testing.T) {
	const n = 2048
	recs := make([]probe.Record, n)
	for i := range recs {
		recs[i] = mkRecord(i, time.Duration(200+i%50)*time.Microsecond, "")
	}
	data := probe.EncodeBatch(recs)
	f := NewFolder(t0, Every10Min, foldSpecs(), trace.New(nil)) // attached; probe table empty
	f.FoldExtent(data, t0)                                      // warm: groups, windows, key buffer, intern table
	avg := testing.AllocsPerRun(20, func() { f.FoldExtent(data, t0) })
	perRecord := avg / n
	if perRecord > 0.01 {
		t.Fatalf("ingest with unsampled tracer allocates %.4f allocs/record (%.1f per %d-record extent), want ~0",
			perRecord, avg, n)
	}
}
