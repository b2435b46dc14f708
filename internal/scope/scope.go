// Package scope reimplements the slice of SCOPE (§2.3) Pingmesh's DSA
// pipeline needs: declarative jobs over latency records stored in Cosmos,
// executed in parallel across extents — the user describes extract/filter/
// group semantics and the engine handles partitioning and parallelism —
// plus a Job Manager that submits recurring jobs (10-minute, 1-hour,
// 1-day) without user intervention (§3.5).
package scope

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
	"pingmesh/internal/trace"
)

// Source names the data a job reads: every extent of every stream whose
// name starts with StreamPrefix.
type Source struct {
	Store        *cosmos.Store
	StreamPrefix string
}

// Job is a declarative analysis over probe records, the moral equivalent
// of a SELECT ... WHERE ... GROUP BY script.
type Job struct {
	// Name identifies the job in metrics and errors.
	Name string
	// Source is the input data.
	Source Source
	// From/To optionally bound the records by Start time: [From, To).
	// Zero values leave the corresponding side unbounded.
	From, To time.Time
	// Where optionally filters records.
	Where func(*probe.Record) bool
	// KeyBytes groups records: it appends the group key for r to dst and
	// returns the extended slice; records it answers ok=false for are
	// skipped. A nil KeyBytes groups everything under "". The engine passes
	// a reused buffer and interns the key (one string allocation per
	// distinct group, not per record), so an append-only KeyBytes makes the
	// whole grouping path allocation-free. The returned slice must alias
	// dst's backing array (append semantics); the engine owns it until the
	// next record.
	KeyBytes func(dst []byte, r *probe.Record) ([]byte, bool)
	// TalliesOnly aggregates groups as analysis.NewTallies — counts and
	// rates, no histograms — for jobs whose consumer reads nothing else.
	TalliesOnly bool
}

// Result is the output of one job run.
type Result struct {
	// Groups holds one aggregate per group key.
	Groups map[string]*analysis.LatencyStats
	// Records is how many records were aggregated (after filtering),
	// counting each sketch as the number of probes it summarizes.
	Records uint64
	// Scanned is how many records were decoded, counting sketches by
	// their summarized probe count so the tally matches what a raw-record
	// upload of the same probes would have scanned.
	Scanned uint64
	// Sketches is how many per-peer sketch entries were aggregated.
	Sketches uint64
	// ParseErrors counts undecodable rows (skipped, not fatal — corrupt
	// rows must not kill a fleet-wide job).
	ParseErrors uint64
	// Traces lists the sampled end-to-end traces whose probe records this
	// run scanned (deduplicated). The DSA pipeline completes them once the
	// cycle that consumed this result has published.
	Traces []trace.TraceID
}

// Get returns the group's stats, or an empty aggregate if absent, so
// report code can read without nil checks.
func (r *Result) Get(key string) *analysis.LatencyStats {
	if s, ok := r.Groups[key]; ok {
		return s
	}
	return analysis.NewLatencyStats()
}

// Engine executes jobs.
type Engine struct {
	// Parallelism bounds concurrent extent processors. Default NumCPU.
	Parallelism int
	// Tracer, if non-nil, re-attaches sampled end-to-end traces to the
	// records the engine scans and records per-run scope-job spans. With no
	// trace in flight the per-record cost is one atomic load (tier-3
	// guarded: TestIngestTraceUnsampledZeroAlloc).
	Tracer *trace.Tracer
}

// Extent names one extent of one stream.
type Extent struct {
	Stream string
	Index  int
}

// Run executes one job across every extent of the source in parallel and
// merges the per-worker aggregates.
func (e *Engine) Run(job Job) (*Result, error) {
	if job.Source.Store == nil {
		return nil, fmt.Errorf("scope: job %q has no source store", job.Name)
	}
	var tasks []Extent
	for _, stream := range job.Source.Store.Streams(job.Source.StreamPrefix) {
		for i := 0; i < job.Source.Store.NumExtents(stream); i++ {
			tasks = append(tasks, Extent{Stream: stream, Index: i})
		}
	}
	var runStart time.Time
	if e.Tracer != nil {
		runStart = e.Tracer.Now()
	}
	par := e.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}

	// The channel is buffered to len(tasks) so the send loop below can
	// never block: a worker that returns early on a ReadExtent error stops
	// draining, and with an unbuffered channel the sends would deadlock
	// once every worker had failed (all replicas of a store down).
	taskCh := make(chan Extent, len(tasks))
	for _, t := range tasks {
		taskCh <- t
	}
	close(taskCh)

	results := make([]*Result, par)
	errs := make([]error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = e.worker(&job, taskCh)
		}(w)
	}
	wg.Wait()

	out := &Result{Groups: make(map[string]*analysis.LatencyStats)}
	for w := 0; w < par; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		r := results[w]
		out.Records += r.Records
		out.Scanned += r.Scanned
		out.Sketches += r.Sketches
		out.ParseErrors += r.ParseErrors
		for _, tid := range r.Traces {
			out.addTrace(tid)
		}
		for k, st := range r.Groups {
			if cur, ok := out.Groups[k]; ok {
				cur.Merge(st)
			} else {
				out.Groups[k] = st
			}
		}
	}
	if e.Tracer != nil {
		// One pipeline-level span per run (trace 0), plus a span on every
		// sampled trace whose record this job scanned.
		ring := e.Tracer.Ring("scope")
		end := e.Tracer.Now()
		ring.SpanAttr(0, trace.StageScopeJob, job.Name, runStart, end, true, "scanned", int64(out.Scanned))
		for _, tid := range out.Traces {
			ring.SpanAttr(tid, trace.StageScopeJob, job.Name, runStart, end, true, "records", int64(out.Records))
		}
	}
	return out, nil
}

// addTrace appends tid if not already present (trace counts stay small:
// the in-flight table is bounded).
func (r *Result) addTrace(tid trace.TraceID) {
	for _, have := range r.Traces {
		if have == tid {
			return
		}
	}
	r.Traces = append(r.Traces, tid)
}

// worker processes extents from the channel into a local result. Extent
// bytes are read zero-copy from the store and scanned in place; records
// stream straight into the group aggregators without ever being
// materialized as a []probe.Record, so the worker's steady-state loop
// allocates nothing per record (see extentSink and TestProcessExtentZeroAlloc).
func (e *Engine) worker(job *Job, tasks <-chan Extent) (*Result, error) {
	res := &Result{Groups: make(map[string]*analysis.LatencyStats)}
	sink := extentSink{job: job, res: res, tracer: e.Tracer}
	for t := range tasks {
		data, err := job.Source.Store.ReadExtent(t.Stream, t.Index)
		if err != nil {
			return nil, fmt.Errorf("scope: job %q: %w", job.Name, err)
		}
		sink.process(data)
	}
	return res, nil
}

// extentSink is one worker's reusable streaming state: the in-place
// scanner (whose error intern table persists across extents) and the
// group-key scratch buffer. It exists as a named struct so the
// zero-allocation property of the inner loop can be tested directly.
type extentSink struct {
	job    *Job
	res    *Result
	tracer *trace.Tracer // nil when tracing is disabled
	sc     probe.Scanner
	keyBuf []byte
	rep    probe.Record // representative record for the current sketch
}

// matchTrace is the cold half of the ingest trace hook: a sampled probe is
// in flight and this record might be it. Kept out of process so the hot
// loop stays lean.
func (s *extentSink) matchTrace(r *probe.Record) {
	if tid := s.tracer.MatchProbe(r.Src, r.SrcPort, r.Start.UnixNano()); tid != 0 {
		now := s.tracer.Now()
		s.tracer.Ring("scope").Span(tid, trace.StageIngest, s.job.Name, now, now, true)
		s.res.addTrace(tid)
	}
}

// process folds one extent into the sink's result. data is only read
// during the call (the store's zero-copy aliasing contract); nothing the
// sink retains aliases it.
//
// Sketch entries are evaluated through a representative record carrying
// the identity fields every summarized probe shares and Start = MinStart.
// That is sound because (a) job filters and keyers only read identity
// fields for grouping, and (b) the agent cuts sketches on the analysis
// window grid, so MinStart's window membership is whole-sketch membership.
// Sketches carry no per-record identity, so trace re-attachment is
// record-only — the agent ships traced probes raw for exactly this reason.
func (s *extentSink) process(data []byte) {
	job, res := s.job, s.res
	s.sc.Reset(data)
	for {
		kind := s.sc.ScanEntry()
		if kind == probe.EntryEOF {
			break
		}
		if s.sc.RowErr() != nil {
			res.ParseErrors++
			continue
		}
		var r *probe.Record
		var sk *probe.Sketch
		if kind == probe.EntrySketch {
			sk = s.sc.Sketch()
			sk.FillRecord(&s.rep)
			r = &s.rep
			res.Scanned += sk.Records()
		} else {
			r = s.sc.Record()
			res.Scanned++
			// Trace re-attachment happens before the job's window/Where
			// filters: the record was ingested whether or not this particular
			// job aggregates it. Cost with no trace in flight: one nil check
			// and one atomic load.
			if s.tracer != nil && s.tracer.HasActiveProbes() {
				s.matchTrace(r)
			}
		}
		if !job.From.IsZero() && r.Start.Before(job.From) {
			continue
		}
		if !job.To.IsZero() && !r.Start.Before(job.To) {
			continue
		}
		if job.Where != nil && !job.Where(r) {
			continue
		}
		kb := s.keyBuf[:0]
		if job.KeyBytes != nil {
			var ok bool
			if kb, ok = job.KeyBytes(kb, r); !ok {
				continue
			}
			s.keyBuf = kb[:0]
		}
		// Group-key interning: the map index on string(kb) does not
		// allocate; the key string is materialized only when a new group is
		// first seen.
		st := res.Groups[string(kb)]
		if st == nil {
			st = newStats(job.TalliesOnly)
			res.Groups[string(kb)] = st
		}
		if sk != nil {
			st.AddSketch(sk)
			res.Records += sk.Records()
			res.Sketches++
		} else {
			st.Add(r)
			res.Records++
		}
	}
}
