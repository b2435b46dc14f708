package dsa

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/metrics"
	"pingmesh/internal/scope"
	"pingmesh/internal/trace"
)

// incremental is the delta-folding tier of every cadence. It keeps a byte
// cursor in every extent under the stream prefix it has not finished
// folding, and each fold pass folds what lies past the cursors into
// per-(job, window) partial aggregates — all jobs of all three cadences in
// the one decode: of an extent still open, the bytes appended since the last
// pass; of one the seal journal names, the remainder, after which the extent
// is finished and counted folded once. A cycle on the grid is then a fold
// pass and a merge of its windows' partials; no stored byte is decoded twice.
//
// Correctness invariant: an extent's bytes before its cursor are in the
// partials and its bytes after it are unread. Every replica of an extent
// holds a prefix of one byte sequence (cosmos gives each extent one write
// order), so the bytes past a cursor are the same whichever replica a later
// read serves, and every cursor sits on a batch boundary. Histogram merges
// are exact integer bucket additions, so what a cycle merges after a pass
// yields report rows byte-identical to one fold of every extent over the
// span.
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

	// passMu serializes fold passes and cycles: a cycle merges the partials
	// as one pass left them.
	passMu  sync.Mutex
	folder  *scope.Folder
	cursors map[string]map[int]int // stream -> extent index -> its byte cursor, or finished

	// cursor is the seal-journal position of the first event not yet
	// folded. Written under passMu; atomic so the backlog gauge can read it
	// without waiting out a fold pass.
	cursor atomic.Uint64

	foldedCtr   *metrics.Counter
	lateCtr     *metrics.Counter
	entriesCtr  *metrics.Counter // entries folded: raw records and sketches
	resolvesCtr *metrics.Counter // of them, those the jobs were evaluated on
}

// finished is the byte cursor of an extent sealed and folded to its end.
const finished = -1

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
		folder:      scope.NewFolder(time.Unix(0, 0).UTC(), scope.Every10Min, specs, p.cfg.Tracer),
		cursors:     make(map[string]map[int]int),
		foldedCtr:   reg.Counter("dsa.fold.extents_folded"),
		lateCtr:     reg.Counter("dsa.fold.late_records"),
		entriesCtr:  reg.Counter("dsa.fold.entries"),
		resolvesCtr: reg.Counter("dsa.fold.resolves"),
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
// is not lagging: nothing has run a fold pass or a cycle yet.
func (inc *incremental) health(now time.Time) trace.StageHealth {
	inc.passMu.Lock()
	last := inc.folder.LastFold()
	inc.passMu.Unlock()
	sh := trace.StageHealth{
		Stage:    "dsa-fold",
		Marked:   !last.IsZero(),
		AgeMs:    -1,
		BudgetMs: trace.DSACycleBudget.Milliseconds(),
	}
	if sh.Marked {
		sh.AgeMs = now.Sub(last).Milliseconds()
		sh.Stale = sh.AgeMs > sh.BudgetMs && inc.backlog() > 0
	}
	return sh
}

// foldPassLocked folds what lies past every cursor into the resident
// partials and returns the first extent it could not read.
//
// An unreadable extent (every replica down, its replicas shorter than its
// cursor, or its stream aged out after the listing) keeps its cursor; if the
// journal names it, it holds the journal cursor at its event too. The next
// pass retries it — a deleted stream's events are compacted out of the
// journal by then — and skips what this one finished past it.
func (inc *incremental) foldPassLocked(now time.Time) error {
	store, prefix := inc.p.cfg.Store, streamPrefix
	// The journal's extents first, then every other extent not finished: it
	// may still grow, and its new bytes are folded without finishing it.
	var seqs []uint64
	var exts []scope.Extent
	next := store.VisitSealed(inc.cursor.Load(), func(ev cosmos.SealEvent) {
		if from := inc.cursors[ev.Stream][ev.Index]; strings.HasPrefix(ev.Stream, prefix) && from != finished {
			seqs = append(seqs, ev.Seq)
			exts = append(exts, scope.Extent{Stream: ev.Stream, Index: ev.Index, From: from})
		}
	})
	journaled := len(exts)
	for _, name := range store.Streams(prefix) {
		for i := range store.NumExtents(name) {
			if from := inc.cursors[name][i]; from != finished && !slices.ContainsFunc(exts[:journaled], func(e scope.Extent) bool {
				return e.Index == i && e.Stream == name
			}) {
				exts = append(exts, scope.Extent{Stream: name, Index: i, From: from, Open: true})
			}
		}
	}
	late, entries, resolves := inc.folder.Late(), inc.folder.Entries(), inc.folder.Resolves()
	ends, errs := inc.folder.FoldExtents(store, exts, now)
	inc.lateCtr.Add(int64(inc.folder.Late() - late))
	inc.entriesCtr.Add(int64(inc.folder.Entries() - entries))
	inc.resolvesCtr.Add(int64(inc.folder.Resolves() - resolves))
	// Backwards, so that next and err end on the first unreadable extent.
	var err error
	for i := len(exts) - 1; i >= 0; i-- {
		ext := exts[i]
		if errs[i] != nil {
			err = fmt.Errorf("extent %d of %s: %w", ext.Index, ext.Stream, errs[i])
			if i < journaled {
				next = seqs[i]
			}
			continue
		}
		c := inc.cursors[ext.Stream]
		if c == nil {
			c = make(map[int]int)
			inc.cursors[ext.Stream] = c
		}
		if c[ext.Index] = ends[i]; !ext.Open {
			c[ext.Index] = finished
			inc.foldedCtr.Inc()
		}
	}
	inc.cursor.Store(next)
	return err
}

// forgetStream drops the cursors of a deleted stream.
func (inc *incremental) forgetStream(name string) {
	inc.passMu.Lock()
	delete(inc.cursors, name)
	inc.passMu.Unlock()
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

// serve assembles one result per job for [from, to), which must be on the
// grid: a whole number of every job's windows, none of them dropped (see the
// retention rule on incremental). It runs a fold pass, which leaves every
// stored byte in the partials, and merges each job's windows. A span off the
// grid is an error, returned before the fold pass: nothing is folded,
// published or dropped for it beyond the clock's hour bound, which holds
// whatever runs.
func (inc *incremental) serve(cy *cycleTrace, kind string, jobs []*cycleJob, from, to time.Time) ([]*scope.Result, error) {
	inc.passMu.Lock()
	defer inc.passMu.Unlock()
	now := inc.p.cfg.Clock.Now()
	inc.boundHoursLocked(now)
	for _, job := range jobs {
		if _, _, ok := inc.folder.Span(job.spec.Name, from, to); !ok {
			return nil, fmt.Errorf("dsa: %s cycle: [%s, %s) is off the grid of job %s: not whole windows, or windows already dropped",
				kind, from.Format(time.RFC3339), to.Format(time.RFC3339), job.spec.Name)
		}
	}
	if err := inc.foldPassLocked(now); err != nil {
		return nil, fmt.Errorf("dsa: %s cycle: %w", kind, err)
	}
	cy.observe(inc.folder.TakeTraces())
	results := make([]*scope.Result, len(jobs))
	for i, job := range jobs {
		name := job.spec.Name
		lo, hi, _ := inc.folder.Span(name, from, to)
		// The resident partials are deep-copied: they keep folding after the
		// cycle. Scanned/ParseErrors are window-free: the folder's running
		// totals are what one fold of every extent counts.
		res := &scope.Result{Partial: *scope.NewPartial(), Scanned: inc.folder.Scanned(), ParseErrors: inc.folder.ParseErrors()}
		for win := lo; win < hi; win++ {
			if part := inc.folder.Partial(name, win); part != nil {
				res.Merge(part)
			}
		}
		// What was published is not read from partials again; see the
		// retention rule on incremental.
		switch kind {
		case Cycle10Min:
			inc.folder.DropWindowsBefore(name, hi-1)
		case Cycle1Hour:
			inc.folder.DropWindowsBefore(name, hi)
		}
		cy.job(name, res)
		results[i] = res
	}
	return results, nil
}

// FoldNow runs one fold pass immediately: the scheduled fold job's body,
// exported for tests and manual control.
func (p *Pipeline) FoldNow() {
	p.inc.passMu.Lock()
	defer p.inc.passMu.Unlock()
	now := p.cfg.Clock.Now()
	p.inc.boundHoursLocked(now)
	p.inc.foldPassLocked(now) // an unreadable extent waits for the next pass
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
		if strings.HasPrefix(ev.Stream, streamPrefix) {
			n++
		}
	})
	return n
}
