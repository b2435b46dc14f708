package dsa

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/trace"
)

// incremental is the delta-folding tier of every cadence: it walks the
// store's seal journal with a cursor, folds each newly sealed extent into
// per-(job, window) partial aggregates exactly once — all jobs of all three
// cadences in the one decode — and lets a cycle serve its span by merging
// partials plus a tail scan of only the unfolded extents, instead of
// re-decoding every extent of the day.
//
// Correctness invariant: at cycle snapshot time (under passMu, after a
// fold pass) every extent is either in the folded set — its records already
// summed into the partials of their windows — or in the tail scan, which
// decodes it with the [from, to) filter. Histogram merges are exact integer
// bucket additions, so the merged result yields report rows byte-identical
// to one full scan.
//
// Retention, per cadence: a 10-minute cycle drops the SLA partials below
// the window it published (that one stays, so re-running the current window
// is still served from folds); an hourly cycle drops the hour partials it
// published; a daily cycle drops nothing. Hour partials — the hourly job's
// and the daily jobs' — are besides bounded by the clock, to the hoursKept
// most recent, so they stay bounded on a pipeline whose hourly or daily cycle
// never runs, or only ever falls back. What is folded below a job's floor
// afterwards is counted in dsa.fold.late_records.
type incremental struct {
	p *Pipeline

	// passMu serializes fold passes and cycles: a cycle must not race a
	// fold pass, or an extent folded between the partial merge and the
	// tail snapshot would be counted twice (or not at all).
	passMu sync.Mutex
	folder *scope.Folder
	folded map[string]map[int]bool // stream -> folded extent indexes

	// cursor is the seal-journal position of the first event not yet
	// folded. Written under passMu; atomic so the backlog gauge can read it
	// without waiting out a fold pass.
	cursor atomic.Uint64

	foldedCtr *metrics.Counter
	lateCtr   *metrics.Counter
}

// hoursKept is how many hour partials a job retains: the 24 of a full day
// plus the hour being filled.
const hoursKept = 25

func newIncremental(p *Pipeline) *incremental {
	specs := make([]scope.FoldSpec, len(p.jobs))
	for i := range p.jobs {
		specs[i] = p.jobs[i].spec
	}
	reg := p.jm.Metrics()
	inc := &incremental{
		p: p,
		// Anchored at the Unix epoch: the folder's ten minutes, hours and
		// days are UTC's, the windows the job manager fires on.
		folder:    scope.NewFolder(time.Unix(0, 0).UTC(), scope.Every10Min, specs, p.cfg.Tracer),
		folded:    make(map[string]map[int]bool),
		foldedCtr: reg.Counter("dsa.fold.extents_folded"),
		lateCtr:   reg.Counter("dsa.fold.late_records"),
	}
	reg.GaugeFunc("dsa.fold.backlog", func() int64 { return int64(inc.backlog()) })
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Freshness().Watch(inc.health)
	}
	return inc
}

// health is the fold tier's stage of the freshness verdict: a backlog whose
// last fold is older than the DSA cycle budget is lagging — the cycle would
// degrade next, so the verdict says so first. A folder that has never folded
// is not lagging: a deployment that only analyses off-grid windows never
// folds.
func (inc *incremental) health(b trace.Budget, now time.Time) trace.StageHealth {
	inc.passMu.Lock()
	last := inc.folder.LastFold()
	inc.passMu.Unlock()
	sh := trace.StageHealth{
		Stage:    "dsa-fold",
		Marked:   !last.IsZero(),
		AgeMs:    -1,
		BudgetMs: b.DSACycle.Milliseconds(),
	}
	if sh.Marked {
		sh.AgeMs = now.Sub(last).Milliseconds()
		sh.Stale = sh.AgeMs > sh.BudgetMs && inc.backlog() > 0
	}
	return sh
}

// foldChunkSize is about how long a lane's unit of work is. A sketched window
// fills one extent of cosmos's 1 MiB, so a pass uses a second core only if the
// unit is smaller than an extent; at 64 KiB that extent is sixteen units.
const foldChunkSize = 64 << 10

// foldChunk is one unit: a run of whole upload batches of one extent.
type foldChunk struct {
	data []byte
	last bool // the extent's final chunk: folding it counts the extent folded
}

// appendChunks cuts an extent into chunks of about size bytes, at the batch
// boundaries probe.SplitBatches can prove. An empty extent is one empty chunk.
func appendChunks(chunks []foldChunk, data []byte, size int) []foldChunk {
	for {
		chunk, rest := probe.SplitBatches(data, size)
		chunks = append(chunks, foldChunk{chunk, len(rest) == 0})
		if len(rest) == 0 {
			return chunks
		}
		data = rest
	}
}

// foldChunks folds the chunks into dst on up to the given number of lanes,
// each taking the next chunk as it finishes one: the caller's goroutine folds
// into dst itself, every other lane into a fork dst absorbs at the end. Every
// merge is exact, so which lane a chunk went to does not show in the result.
func foldChunks(dst *scope.Folder, chunks []foldChunk, lanes int, now time.Time) {
	var dealt atomic.Int64
	fold := func(lane *scope.Folder) {
		for i := int(dealt.Add(1)) - 1; i < len(chunks); i = int(dealt.Add(1)) - 1 {
			if c := chunks[i]; c.last {
				lane.FoldExtent(c.data, now)
			} else {
				lane.FoldChunk(c.data)
			}
		}
	}
	var forks []*scope.Folder
	var wg sync.WaitGroup
	for len(forks) < min(lanes, len(chunks))-1 {
		fork := dst.Fork()
		forks = append(forks, fork)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fold(fork)
		}()
	}
	fold(dst)
	wg.Wait()
	for _, fork := range forks {
		dst.Absorb(fork)
	}
}

// foldInto folds the named extents into dst on every core the process may run
// on. The extents are read zero-copy and cut into chunks, and the chunks — not
// the extents — are dealt to the lanes: the sketch path puts a whole window in
// one extent, and a pass that deals extents folds it on one core while the
// others idle (DESIGN.md has why a pass must not run on one core). It returns,
// per extent, the error that kept it from being read; such an extent is not
// folded.
func (inc *incremental) foldInto(dst *scope.Folder, exts []scope.Extent, now time.Time) []error {
	errs := make([]error, len(exts))
	var chunks []foldChunk
	for i, ext := range exts {
		data, err := inc.p.cfg.Store.ReadExtent(ext.Stream, ext.Index)
		if err != nil {
			errs[i] = err
			continue
		}
		chunks = appendChunks(chunks, data, foldChunkSize)
	}
	foldChunks(dst, chunks, runtime.GOMAXPROCS(0), now)
	return errs
}

// foldPassLocked folds every extent sealed since the last pass into the
// resident partials.
//
// An unreadable extent (every replica down, or its stream aged out after
// the journal snapshot) is left unfolded and holds the cursor at its event:
// the next pass retries it — a deleted stream's events are compacted out of
// the journal by then — and skips what this one folded past it; meanwhile
// the cycle's tail pass surfaces the read error, or the deletion, exactly as
// a full scan would.
func (inc *incremental) foldPassLocked(now time.Time) {
	prefix := inc.p.cfg.StreamPrefix
	var evs []cosmos.SealEvent
	var exts []scope.Extent
	next := inc.p.cfg.Store.VisitSealed(inc.cursor.Load(), func(ev cosmos.SealEvent) {
		if strings.HasPrefix(ev.Stream, prefix) && !inc.folded[ev.Stream][ev.Index] {
			evs = append(evs, ev)
			exts = append(exts, scope.Extent{Stream: ev.Stream, Index: ev.Index})
		}
	})
	if len(evs) == 0 {
		inc.cursor.Store(next)
		return
	}
	late := inc.folder.Late()
	errs := inc.foldInto(inc.folder, exts, now)
	inc.lateCtr.Add(int64(inc.folder.Late() - late))
	// Backwards, so that next ends on the first unreadable event.
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		if errs[i] != nil {
			next = ev.Seq
			continue
		}
		m := inc.folded[ev.Stream]
		if m == nil {
			m = make(map[int]bool)
			inc.folded[ev.Stream] = m
		}
		m[ev.Index] = true
		inc.foldedCtr.Inc()
	}
	inc.cursor.Store(next)
}

// forgetStream drops fold bookkeeping for a deleted stream.
func (inc *incremental) forgetStream(name string) {
	inc.passMu.Lock()
	delete(inc.folded, name)
	inc.passMu.Unlock()
}

// tailExtents lists every extent not yet folded: the open tails plus any
// sealed extent whose seal has not reached the journal. Callers hold
// passMu.
func (inc *incremental) tailExtents() []scope.Extent {
	var out []scope.Extent
	store := inc.p.cfg.Store
	for _, name := range store.Streams(inc.p.cfg.StreamPrefix) {
		fm := inc.folded[name]
		n := store.NumExtents(name)
		for i := 0; i < n; i++ {
			if !fm[i] {
				out = append(out, scope.Extent{Stream: name, Index: i})
			}
		}
	}
	return out
}

// assemble produces one job's Result from its windows [lo, hi): the folded
// partials (deep-copied — the live ones keep folding after the cycle) plus
// what the cycle's tail pass folded of the unfolded extents (the cycle's own:
// no copy).
func (inc *incremental) assemble(spec string, lo, hi int64, tail *scope.Folder) *scope.Result {
	merged := scope.NewPartial()
	for win := lo; win < hi; win++ {
		if part := inc.folder.Partial(spec, win); part != nil {
			merged.Merge(part)
		}
		if part := tail.Partial(spec, win); part != nil {
			merged.Absorb(part)
		}
	}
	return &scope.Result{
		Groups:  merged.Groups,
		Records: merged.Records,
		// Scanned/ParseErrors are window-free, so the folder's running
		// totals plus the tail's match what one full scan would count.
		Scanned:     inc.folder.Scanned() + tail.Scanned(),
		ParseErrors: inc.folder.ParseErrors() + tail.ParseErrors(),
	}
}

// boundHoursLocked drops the hour partials that have aged out of the
// hoursKept ending at now. It runs before every fold pass, so the bound holds
// — and what arrives for an aged-out hour is counted late — whatever cycles
// run.
func (inc *incremental) boundHoursLocked(now time.Time) {
	for i := range inc.p.jobs {
		if job := &inc.p.jobs[i]; job.kind != Cycle10Min {
			name := job.spec.Name
			inc.folder.DropWindowsBefore(name, inc.folder.WindowOf(name, now)-(hoursKept-1))
		}
	}
}

// serve assembles one result per job for [from, to) from folded partials.
// served is false when some job cannot serve the span — it is not a whole
// number of the job's windows on the grid, or reaches below what the job
// still retains; the caller then scans the span in full.
//
// The extents not yet folded — the open tails — are decoded once per cycle,
// for all of the cycle's jobs, by a folder of the cycle's own that is thrown
// away afterwards: they still grow, so nothing of them may stay.
func (inc *incremental) serve(cy *cycleTrace, kind string, jobs []*cycleJob, from, to time.Time) (results []*scope.Result, served bool, err error) {
	inc.passMu.Lock()
	defer inc.passMu.Unlock()
	now := inc.p.cfg.Clock.Now()
	inc.boundHoursLocked(now)
	type span struct{ lo, hi int64 }
	spans := make([]span, len(jobs))
	specs := make([]scope.FoldSpec, len(jobs))
	for i, job := range jobs {
		lo, hi, ok := inc.folder.Span(job.spec.Name, from, to)
		if !ok {
			return nil, false, nil
		}
		spans[i], specs[i] = span{lo, hi}, job.spec
	}
	inc.foldPassLocked(now) // the folded set must be complete at snapshot
	exts := inc.tailExtents()
	tail := scope.NewFolder(inc.folder.Anchor, inc.folder.Window, specs, inc.p.cfg.Tracer)
	for i, err := range inc.foldInto(tail, exts, now) {
		if err != nil {
			return nil, true, fmt.Errorf("dsa: %s cycle: extent %d of %s: %w", kind, exts[i].Index, exts[i].Stream, err)
		}
	}
	cy.observe(&scope.Result{Traces: append(inc.folder.TakeTraces(), tail.TakeTraces()...)})
	results = make([]*scope.Result, len(jobs))
	for i, job := range jobs {
		results[i] = inc.assemble(job.spec.Name, spans[i].lo, spans[i].hi, tail)
		// What was published is not read from partials again; see the
		// retention rule on incremental.
		switch kind {
		case Cycle10Min:
			inc.folder.DropWindowsBefore(job.spec.Name, spans[i].hi-1)
		case Cycle1Hour:
			inc.folder.DropWindowsBefore(job.spec.Name, spans[i].hi)
		}
	}
	return results, true, nil
}

// FoldNow runs one fold pass immediately: the scheduled fold job's body,
// exported for tests and manual control.
func (p *Pipeline) FoldNow() {
	p.inc.passMu.Lock()
	defer p.inc.passMu.Unlock()
	now := p.cfg.Clock.Now()
	p.inc.boundHoursLocked(now)
	p.inc.foldPassLocked(now)
}

// ShardLag is the fold tier's state.
type ShardLag struct {
	Backlog  int    // sealed extents in the journal not yet folded
	Stolen   uint64 // always 0: one folder, nothing to steal from
	Folded   uint64
	LastFold time.Time
}

// ShardLags reports the single folder's state as a one-element slice. The
// name, the slice and the Stolen field are owed to bench/dataplane.go, which
// compiles against them and cannot change in the same PR; a benchmark PR
// renames them.
func (p *Pipeline) ShardLags() []ShardLag {
	inc := p.inc
	inc.passMu.Lock()
	defer inc.passMu.Unlock()
	return []ShardLag{{
		Backlog:  inc.backlog(),
		Folded:   inc.folder.Extents(),
		LastFold: inc.folder.LastFold(),
	}}
}

// MaxFoldBacklog returns the fold backlog: the watchdog's staleness signal
// and the dsa.fold.backlog gauge.
func (p *Pipeline) MaxFoldBacklog() int { return p.inc.backlog() }

// backlog counts the sealed extents under the pipeline's stream prefix that
// sit in the journal at or past the fold cursor — while an unreadable extent
// holds the cursor, also those folded past it. It does not take passMu.
func (inc *incremental) backlog() int {
	n := 0
	inc.p.cfg.Store.VisitSealed(inc.cursor.Load(), func(ev cosmos.SealEvent) {
		if strings.HasPrefix(ev.Stream, inc.p.cfg.StreamPrefix) {
			n++
		}
	})
	return n
}
