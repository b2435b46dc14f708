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

// incremental is the delta-folding tier of every cadence: it walks the
// store's seal journal with a cursor, folds each newly sealed extent into
// per-(job, window) partial aggregates exactly once — all jobs of all three
// cadences in the one decode — and lets a cycle serve its span by merging
// partials plus a span fold of only the unfolded extents, instead of
// re-decoding every extent of the day.
//
// Correctness invariant: at cycle snapshot time (under passMu, after a
// fold pass) every extent is either in the folded set — its records already
// summed into the partials of their windows — or in the cycle's span fold,
// which decodes it with the [from, to) filter. Histogram merges are exact
// integer bucket additions, so the merged result yields report rows
// byte-identical to one fold of every extent over the span.
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
	// span fold's snapshot would be counted twice (or not at all).
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

// foldPassLocked folds every extent sealed since the last pass into the
// resident partials.
//
// An unreadable extent (every replica down, or its stream aged out after
// the journal snapshot) is left unfolded and holds the cursor at its event:
// the next pass retries it — a deleted stream's events are compacted out of
// the journal by then — and skips what this one folded past it; meanwhile
// the cycle's span fold surfaces the read error, or the deletion.
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
	errs := inc.folder.FoldExtents(inc.p.cfg.Store, exts, now)
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

// serve assembles one result per job for [from, to). It has one path: a span
// folder of the cycle's own (scope.NewSpanFolder) folds every extent the
// resident partials cannot answer for, once, for all of the cycle's jobs, and
// is thrown away afterwards.
//
// On the grid — the span is a whole number of every job's windows, none of
// them dropped — those extents are the ones not yet folded, the open tails:
// they still grow, so nothing of them may stay. Each job's result is its
// windows' partials plus what the span folder folded. Off the grid — a manual
// run, or one reaching partials already dropped — the span folder folds every
// extent, and the cycle is counted in dsa.cycle.offgrid_rescans.
func (inc *incremental) serve(cy *cycleTrace, kind string, jobs []*cycleJob, from, to time.Time) ([]*scope.Result, error) {
	inc.passMu.Lock()
	defer inc.passMu.Unlock()
	now := inc.p.cfg.Clock.Now()
	inc.boundHoursLocked(now)
	type span struct{ lo, hi int64 }
	spans := make([]span, len(jobs))
	specs := make([]scope.FoldSpec, len(jobs))
	onGrid := true
	for i, job := range jobs {
		lo, hi, ok := inc.folder.Span(job.spec.Name, from, to)
		spans[i], specs[i] = span{lo, hi}, job.spec
		onGrid = onGrid && ok
	}
	if onGrid {
		inc.foldPassLocked(now) // the folded set must be complete at snapshot
	} else {
		inc.p.offGrid.Inc()
	}
	exts := scope.Source{Store: inc.p.cfg.Store, StreamPrefix: inc.p.cfg.StreamPrefix}.Extents()
	if onGrid {
		exts = slices.DeleteFunc(exts, func(e scope.Extent) bool { return inc.folded[e.Stream][e.Index] })
	}
	tail := scope.NewSpanFolder(specs, from, to, inc.p.cfg.Tracer)
	for i, err := range tail.FoldExtents(inc.p.cfg.Store, exts, now) {
		if err != nil {
			return nil, fmt.Errorf("dsa: %s cycle: extent %d of %s: %w", kind, exts[i].Index, exts[i].Stream, err)
		}
	}
	cy.observe(inc.folder.TakeTraces())
	cy.observe(tail.TakeTraces())
	results := make([]*scope.Result, len(jobs))
	for i, job := range jobs {
		name := job.spec.Name
		res := tail.Result(name)
		if onGrid {
			// The resident partials are deep-copied: they keep folding after
			// the cycle. Scanned/ParseErrors are window-free, so the folder's
			// running totals plus the span folder's are what one fold of
			// every extent would count.
			for win := spans[i].lo; win < spans[i].hi; win++ {
				if part := inc.folder.Partial(name, win); part != nil {
					res.Merge(part)
				}
			}
			res.Scanned += inc.folder.Scanned()
			res.ParseErrors += inc.folder.ParseErrors()
			// What was published is not read from partials again; see the
			// retention rule on incremental.
			switch kind {
			case Cycle10Min:
				inc.folder.DropWindowsBefore(name, spans[i].hi-1)
			case Cycle1Hour:
				inc.folder.DropWindowsBefore(name, spans[i].hi)
			}
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
