package dsa

import (
	"testing"
	"time"

	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

// tracedPipe uploads the diff fixture's CSV batches into a pipeline with a
// tracer on the sim clock, and samples one raw record of window 1 whose
// (source, port, start) no other record shares. It returns the record's
// trace and the pipeline.
func tracedPipe(t *testing.T) (*Pipeline, *trace.Tracer, trace.TraceID) {
	t.Helper()
	fx := buildDiffFixture(t)
	store := fx.newStore(t)
	fx.upload(t, store, fx.inOrder())
	type key struct {
		src   string
		port  uint16
		start int64
	}
	seen := map[key]int{}
	var recs []probe.Record
	for _, b := range fx.batches {
		batch, _ := probe.DecodeBatch(b)
		for _, r := range batch {
			seen[key{r.Src.String(), r.SrcPort, r.Start.UnixNano()}]++
		}
		recs = append(recs, batch...)
	}
	w1From, w1To := window(1)
	clock := simclock.NewSim(t0.Add(diffHours * time.Hour))
	tracer := trace.New(clock)
	var tid trace.TraceID
	for _, r := range recs {
		if !r.Start.Before(w1From) && r.Start.Before(w1To) && seen[key{r.Src.String(), r.SrcPort, r.Start.UnixNano()}] == 1 {
			tid = 1
			tracer.RegisterProbe(tid, r.Src, r.SrcPort, r.Start.UnixNano())
			break
		}
	}
	if tid == 0 {
		t.Fatal("no record of window 1 has a unique trace key")
	}
	pipe, err := New(Config{Store: store, Top: fx.top, Clock: clock, Services: fx.services, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.jobsOf(Cycle10Min)) < 3 {
		t.Fatalf("the 10-minute cadence has %d jobs; the test needs several", len(pipe.jobsOf(Cycle10Min)))
	}
	return pipe, tracer, tid
}

// spansOf returns the trace's spans by stage.
func spansOf(tracer *trace.Tracer, tid trace.TraceID) map[string][]trace.SpanDump {
	out := map[string][]trace.SpanDump{}
	for _, s := range tracer.TraceSpans(tid) {
		out[s.Stage] = append(out[s.Stage], s)
	}
	return out
}

// checkCycleSpans requires one ingest span for the traced record — its
// extent decoded once, whatever the number of jobs — one scope-job span per
// job of the cadence, each saying how many records its job aggregated, one
// dsa-cycle span, and the trace completed.
func checkCycleSpans(t *testing.T, pipe *Pipeline, tracer *trace.Tracer, tid trace.TraceID) {
	t.Helper()
	spans := spansOf(tracer, tid)
	jobs := pipe.jobsOf(Cycle10Min)
	if len(spans["ingest"]) != 1 || len(spans["scope-job"]) != len(jobs) || len(spans["dsa-cycle"]) != 1 {
		t.Fatalf("%d ingest, %d scope-job (for %d jobs), %d dsa-cycle spans: %+v",
			len(spans["ingest"]), len(spans["scope-job"]), len(jobs), len(spans["dsa-cycle"]), spans)
	}
	records := map[string]int64{}
	for _, s := range spans["scope-job"] {
		if s.AttrKey == "records" {
			records[s.Name] = s.AttrVal
		}
	}
	for _, job := range jobs {
		if n, ok := records[job.spec.Name]; !ok || n == 0 {
			t.Fatalf("no scope-job span with the records of job %s: %+v", job.spec.Name, spans["scope-job"])
		}
	}
	if tracer.HasActiveProbes() {
		t.Fatal("the cycle did not complete the trace")
	}
}

// TestGridCycleTracesScopeJob: a grid-aligned cycle — served from partials —
// records the scope-job stage of a traced record like any other.
func TestGridCycleTracesScopeJob(t *testing.T) {
	pipe, tracer, tid := tracedPipe(t)
	if err := pipe.RunTenMinute(window(1)); err != nil {
		t.Fatal(err)
	}
	checkCycleSpans(t, pipe, tracer, tid)
}
