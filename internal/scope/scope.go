// Package scope reimplements the slice of SCOPE (§2.3) Pingmesh's DSA
// pipeline needs: declarative jobs over latency records stored in Cosmos,
// executed in parallel across extents — the user describes extract/filter/
// group semantics and the fold handles partitioning and parallelism —
// plus a Job Manager that submits recurring jobs (10-minute, 1-hour,
// 1-day) without user intervention (§3.5).
//
// There is one executor, Folder: recurring jobs fold every sealed extent
// into per-window partials once, and an ad-hoc Job is the same fold over
// every extent into one window that covers all time (Run).
package scope

import (
	"fmt"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
)

// Source names the data a job reads: every extent of every stream whose
// name starts with StreamPrefix.
type Source struct {
	Store        *cosmos.Store
	StreamPrefix string
}

// Extents lists every extent of the source, stream by stream.
func (s Source) Extents() []Extent {
	var out []Extent
	for _, stream := range s.Store.Streams(s.StreamPrefix) {
		for i := 0; i < s.Store.NumExtents(stream); i++ {
			out = append(out, Extent{Stream: stream, Index: i})
		}
	}
	return out
}

// Extent names one extent of one stream, and where in it a fold starts.
type Extent struct {
	Stream string
	Index  int
	// From is the byte cursor a fold starts at: the extent's bytes before it
	// are folded already. An extent holds whole upload batches at every
	// length it is read at, so a length read before is a batch boundary.
	From int
	// Open marks an extent that may still grow: a fold takes its bytes past
	// From but does not count it folded.
	Open bool
}

// Job is a declarative analysis over probe records, the moral equivalent
// of a SELECT ... WHERE ... GROUP BY script.
type Job struct {
	// Name identifies the job in errors.
	Name string
	// Source is the input data.
	Source Source
	// From/To optionally bound the records by Start time: [From, To).
	// Zero values leave the corresponding side unbounded.
	From, To time.Time
	// Where optionally filters records. Like FoldSpec.Where and KeyBytes,
	// Where and KeyBytes answer only from a record's identity, success and
	// 10-minute grid window, or a run of records folds wrongly.
	Where func(*probe.Record) bool
	// KeyBytes groups records, as FoldSpec.KeyBytes does; a nil KeyBytes
	// groups everything under "".
	KeyBytes func(dst []byte, r *probe.Record) ([]byte, bool)
	// TalliesOnly aggregates groups as analysis.NewTallies — counts and
	// rates, no histograms — for jobs whose consumer reads nothing else.
	TalliesOnly bool
}

// Result is the output of one job run.
type Result struct {
	// Partial holds one aggregate per group key (Groups) and how many
	// records were aggregated after filtering (Records), counting each
	// sketch as the number of probes it summarizes.
	Partial
	// Scanned is how many records were decoded, counting sketches by
	// their summarized probe count so the tally matches what a raw-record
	// upload of the same probes would have scanned.
	Scanned uint64
	// ParseErrors counts undecodable rows (skipped, not fatal — corrupt
	// rows must not kill a fleet-wide job).
	ParseErrors uint64
}

// Get returns the group's stats, or an empty aggregate if absent, so
// report code can read without nil checks.
func (r *Result) Get(key string) *analysis.LatencyStats {
	if s, ok := r.Groups[key]; ok {
		return s
	}
	return analysis.NewLatencyStats()
}

// wholeKey groups every record under "".
func wholeKey(dst []byte, _ *probe.Record) ([]byte, bool) { return dst, true }

// Run executes an ad-hoc job: one span folder (newSpanFolder) over every
// extent of the source, on every core. An unreadable extent fails the job.
func Run(job Job) (*Result, error) {
	if job.Source.Store == nil {
		return nil, fmt.Errorf("scope: job %q has no source store", job.Name)
	}
	spec := FoldSpec{Name: job.Name, Where: job.Where, KeyBytes: job.KeyBytes, TalliesOnly: job.TalliesOnly}
	if spec.KeyBytes == nil {
		spec.KeyBytes = wholeKey
	}
	f := newSpanFolder(spec, job.From, job.To)
	exts := job.Source.Extents()
	_, errs := f.FoldExtents(job.Source.Store, exts, time.Time{})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scope: job %q: extent %d of %s: %w", job.Name, exts[i].Index, exts[i].Stream, err)
		}
	}
	return f.result(job.Name), nil
}
