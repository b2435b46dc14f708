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
	"pingmesh/internal/scope"
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
	return inc
}

// foldInto folds the named extents into dst, decoding on every core as the
// scan engine does: the extents are dealt to one lane per core, lane 0 being
// dst itself and the others forks it absorbs at the end, so a single extent —
// the scheduled fold job's usual find — forks nothing. A cycle that catches
// up on a whole window must not do it on one core: besides the wall time, a
// phase that runs alone keeps its pace when the box slows down under load on
// every core, and that is the machine speed bench/ samples and normalizes
// timings by — a serial pass makes its rates spread wider from run to run than
// the driver can resolve. It returns, per extent, the error that kept it from
// being read; such an extent is not folded.
func (inc *incremental) foldInto(dst *scope.Folder, exts []scope.Extent, now time.Time) []error {
	store := inc.p.cfg.Store
	lanes := []*scope.Folder{dst}
	for len(lanes) < min(runtime.NumCPU(), len(exts)) {
		lanes = append(lanes, dst.Fork())
	}
	errs := make([]error, len(exts))
	var dealt atomic.Int64
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(dealt.Add(1)) - 1; i < len(exts); i = int(dealt.Add(1)) - 1 {
				data, err := store.ReadExtent(exts[i].Stream, exts[i].Index)
				if err != nil {
					errs[i] = err
					continue
				}
				lane.FoldExtent(data, now)
			}
		}()
	}
	wg.Wait()
	for _, fork := range lanes[1:] {
		dst.Absorb(fork)
	}
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
// what the cycle's tail pass folded of the unfolded extents.
func (inc *incremental) assemble(spec string, lo, hi int64, tail *scope.Folder) *scope.Result {
	merged := scope.NewPartial()
	for win := lo; win < hi; win++ {
		if part := inc.folder.Partial(spec, win); part != nil {
			merged.Merge(part)
		}
	}
	res := &scope.Result{
		Groups:  merged.Groups,
		Records: merged.Records,
		// Scanned/ParseErrors are window-free, so the folder's running
		// totals plus the tail's match what one full scan would count.
		Scanned:     inc.folder.Scanned() + tail.Scanned(),
		ParseErrors: inc.folder.ParseErrors() + tail.ParseErrors(),
	}
	for win := lo; win < hi; win++ {
		part := tail.Partial(spec, win)
		if part == nil {
			continue
		}
		res.Records += part.Records
		for k, st := range part.Groups { // the tail folder is the cycle's own: no copy
			if cur, ok := res.Groups[k]; ok {
				cur.Merge(st)
			} else {
				res.Groups[k] = st
			}
		}
	}
	return res
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

// ShardLag is the fold tier's state, for /health and the fold-lag
// watchdog.
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
