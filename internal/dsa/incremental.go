package dsa

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/metrics"
	"pingmesh/internal/scope"
)

// incremental is the delta-folding tier of the 10-minute path: it walks
// the store's seal journal with a cursor, folds each newly sealed extent
// into per-(job, window) partial aggregates exactly once, and lets a cycle
// serve its window by merging partials plus a tail scan of only the
// unfolded extents — instead of re-decoding every extent of the day.
//
// Correctness invariant: at cycle snapshot time (under passMu, after a
// fold pass) every extent is either in the folded set — its window-W
// records already summed into partials — or in the tail scan, which decodes
// it with the [from, to) filter. Histogram merges are exact integer bucket
// additions, so the merged result yields report rows byte-identical to one
// full scan.
type incremental struct {
	p *Pipeline

	// passMu serializes fold passes and cycles: a cycle must not race a
	// fold pass, or an extent folded between the partial merge and the
	// tail snapshot would be counted twice (or not at all).
	passMu sync.Mutex
	folder *scope.Folder
	folded map[string]map[int]bool // stream -> folded extent indexes
	minWin int64                   // lowest retained window; older cycles are re-scanned

	// cursor is the seal-journal position of the first event not yet
	// folded. Written under passMu; atomic so the backlog gauge can read it
	// without waiting out a fold pass.
	cursor atomic.Uint64

	foldedCtr *metrics.Counter
}

func newIncremental(p *Pipeline, anchor time.Time) *incremental {
	specs := make([]scope.FoldSpec, len(p.jobs))
	for i := range p.jobs {
		specs[i] = p.jobs[i].spec
	}
	reg := p.jm.Metrics()
	inc := &incremental{
		p:         p,
		folder:    scope.NewFolder(anchor, scope.Every10Min, specs, p.cfg.Tracer),
		folded:    make(map[string]map[int]bool),
		minWin:    math.MinInt64,
		foldedCtr: reg.Counter("dsa.fold.extents_folded"),
	}
	reg.GaugeFunc("dsa.fold.backlog", func() int64 { return int64(inc.backlog()) })
	return inc
}

// rearm re-anchors the window grid, allowed only while nothing has been
// folded: Start calls it so the fold grid matches the job manager's
// scheduling grid exactly (a real clock's Now() differs between New and
// Start).
func (inc *incremental) rearm(anchor time.Time) {
	inc.passMu.Lock()
	defer inc.passMu.Unlock()
	if inc.folder.Extents() == 0 {
		inc.folder.Anchor = anchor
	}
}

// foldPassLocked folds every extent sealed since the last pass, decoding on
// every core as the scan engine does: the extents are dealt to one lane per
// core, lane 0 being the folder itself and the others forks it absorbs when
// the pass ends, so a pass over a single extent — the scheduled job's usual
// find — forks nothing. A cycle that catches up on a whole window must not
// do it on one core: besides the wall time, a phase that runs alone keeps
// its pace when the box slows down under load on every core, and that is
// the machine speed bench/ samples and normalizes timings by — a serial
// pass makes its rates spread wider from run to run than the driver can
// resolve.
//
// An unreadable extent (every replica down, or its stream aged out after
// the journal snapshot) is left unfolded and holds the cursor at its event:
// the next pass retries it — a deleted stream's events are compacted out of
// the journal by then — and skips what this one folded past it; meanwhile
// the tail scan surfaces the read error, or the deletion, exactly as a full
// scan would.
func (inc *incremental) foldPassLocked() {
	store := inc.p.cfg.Store
	prefix := inc.p.cfg.StreamPrefix
	now := inc.p.cfg.Clock.Now()
	var evs []cosmos.SealEvent
	next := store.VisitSealed(inc.cursor.Load(), func(ev cosmos.SealEvent) {
		if strings.HasPrefix(ev.Stream, prefix) && !inc.folded[ev.Stream][ev.Index] {
			evs = append(evs, ev)
		}
	})
	if len(evs) == 0 {
		inc.cursor.Store(next)
		return
	}
	lanes := []*scope.Folder{inc.folder}
	for len(lanes) < min(runtime.NumCPU(), len(evs)) {
		lanes = append(lanes, inc.folder.Fork())
	}
	unread := make([]bool, len(evs))
	var dealt atomic.Int64
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(dealt.Add(1)) - 1; i < len(evs); i = int(dealt.Add(1)) - 1 {
				data, err := store.ReadExtent(evs[i].Stream, evs[i].Index)
				if err != nil {
					unread[i] = true
					continue
				}
				lane.FoldExtent(data, now)
			}
		}()
	}
	wg.Wait()
	for _, fork := range lanes[1:] {
		inc.folder.Absorb(fork)
	}
	// Backwards, so that next ends on the first unreadable event.
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		if unread[i] {
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

// assemble produces one job's Result for window win: the folded partial
// (deep-copied — the live partial keeps folding after the cycle) plus the
// tail scan over the unfolded extents.
func (inc *incremental) assemble(spec scope.FoldSpec, win int64, from, to time.Time, tail []scope.Extent) (*scope.Result, error) {
	merged := scope.NewPartial()
	if part := inc.folder.Partial(spec.Name, win); part != nil {
		merged.Merge(part)
	}
	tailRes, err := inc.p.engine.RunExtents(inc.p.windowJob(spec, from, to), tail)
	if err != nil {
		return nil, err
	}
	res := &scope.Result{
		Groups:  merged.Groups,
		Records: merged.Records + tailRes.Records,
		Traces:  tailRes.Traces,
		// Scanned/ParseErrors are window-free, so the folder's running
		// totals plus the tail's match what one full scan would count.
		Scanned:     inc.folder.Scanned() + tailRes.Scanned,
		ParseErrors: inc.folder.ParseErrors() + tailRes.ParseErrors,
	}
	for k, st := range tailRes.Groups {
		if cur, ok := res.Groups[k]; ok {
			cur.Merge(st)
		} else {
			res.Groups[k] = st
		}
	}
	return res, nil
}

// serve assembles one result per 10-minute job for [from, to) from folded
// partials. served is false when [from, to) is not exactly one grid window
// that is still retained; the caller then scans the window in full.
func (inc *incremental) serve(cy *cycleTrace, from, to time.Time) (results []*scope.Result, served bool, err error) {
	inc.passMu.Lock()
	defer inc.passMu.Unlock()
	win, ok := inc.folder.Aligned(from, to)
	if !ok || win < inc.minWin {
		return nil, false, nil
	}
	inc.foldPassLocked() // the folded set must be complete at snapshot
	tail := inc.tailExtents()
	if tids := inc.folder.TakeTraces(); len(tids) > 0 {
		cy.observe(&scope.Result{Traces: tids})
	}
	results = make([]*scope.Result, len(inc.p.jobs))
	for i := range inc.p.jobs {
		if results[i], err = inc.assemble(inc.p.jobs[i].spec, win, from, to, tail); err != nil {
			return nil, true, err
		}
	}
	// Published windows are never re-read; drop everything below this one.
	inc.folder.DropWindowsBefore(win)
	inc.minWin = win
	return results, true, nil
}

// FoldNow runs one fold pass immediately: the scheduled fold job's body,
// exported for tests and manual control.
func (p *Pipeline) FoldNow() {
	p.inc.passMu.Lock()
	p.inc.foldPassLocked()
	p.inc.passMu.Unlock()
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
