package scope

import (
	"fmt"
	"math"
	"slices"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/probe"
	"pingmesh/internal/trace"
)

// FoldSpec is the window-free core of a job: the filter and grouping of an
// analysis, registered once so every sealed extent can be folded into
// per-(spec, window) partials as it lands. The cycle then merges partials
// instead of re-decoding the extent.
type FoldSpec struct {
	// Name identifies the spec among its folder's.
	Name string
	// Where optionally filters records.
	Where func(*probe.Record) bool
	// KeyBytes groups records: it appends the group key for r to dst and
	// returns the extended slice; records it answers ok=false for are
	// skipped. The folder passes a reused buffer and interns the key (one
	// string allocation per distinct group, not per record), so an
	// append-only KeyBytes makes the whole grouping path allocation-free.
	// The returned slice must alias dst's backing array (append semantics);
	// the folder owns it until the next record. Required.
	KeyBytes func(dst []byte, r *probe.Record) ([]byte, bool)
	// Window is the length of the spec's partials: a whole multiple of the
	// folder's window, on the folder's anchor. Zero means the folder's window.
	Window time.Duration
	// TalliesOnly makes the group aggregates analysis.NewTallies: counts and
	// rates, no histogram. For specs whose consumer never reads a percentile.
	TalliesOnly bool
}

// Partial is a mergeable per-(spec, window) partial aggregate: the group
// aggregates plus the tallies a Result carries, restricted to records whose
// Start falls in one window. Merge is associative and commutative (group
// histograms are exact integer bucket sums), so partials folded from
// disjoint extents in any order combine to the same bytes.
type Partial struct {
	// Groups holds one aggregate per group key.
	Groups map[string]*analysis.LatencyStats
	// Records is how many records were folded (after filtering/keying).
	Records uint64
	// MinStart/MaxStart mark the earliest and latest record Start folded
	// into this window (zero when Records is 0): the freshness marks.
	MinStart, MaxStart time.Time

	talliesOnly bool // new groups are tallies-only (FoldSpec.TalliesOnly)
}

// NewPartial returns an empty partial.
func NewPartial() *Partial {
	return &Partial{Groups: make(map[string]*analysis.LatencyStats)}
}

// newStats returns an empty group aggregate in the form a spec or job asks
// for.
func newStats(talliesOnly bool) *analysis.LatencyStats {
	if talliesOnly {
		return analysis.NewTallies()
	}
	return analysis.NewLatencyStats()
}

// Merge folds o into p. o is not mutated and shares no state with p
// afterwards (group aggregates are deep-copied on first sight), so live
// partials can keep folding while a cycle merges snapshots of them.
func (p *Partial) Merge(o *Partial) { p.merge(o, false) }

// Absorb folds o into p and takes what it can of o instead of copying it: for
// an o the caller owns and will not use again (a fork's partial, a cycle's
// tail), where Merge's copies would be garbage at once.
func (p *Partial) Absorb(o *Partial) { p.merge(o, true) }

func (p *Partial) merge(o *Partial, owned bool) {
	for k, st := range o.Groups {
		if cur, ok := p.Groups[k]; ok {
			cur.Merge(st)
		} else if owned {
			p.Groups[k] = st
		} else {
			p.Groups[k] = st.Clone()
		}
	}
	p.Records += o.Records
	if o.Records > 0 {
		if p.MinStart.IsZero() || o.MinStart.Before(p.MinStart) {
			p.MinStart = o.MinStart
		}
		if o.MaxStart.After(p.MaxStart) {
			p.MaxStart = o.MaxStart
		}
	}
}

// group returns the aggregate for kb, interning the group key on first
// sight: the map index on string(kb) does not allocate, so a key string is
// materialized once per group, not per record.
func (p *Partial) group(kb []byte) *analysis.LatencyStats {
	st := p.Groups[string(kb)]
	if st == nil {
		st = newStats(p.talliesOnly)
		p.Groups[string(kb)] = st
	}
	return st
}

// observe folds one record's key into the partial.
func (p *Partial) observe(kb []byte, r *probe.Record) {
	p.group(kb).Add(r)
	p.Records++
	if p.MinStart.IsZero() || r.Start.Before(p.MinStart) {
		p.MinStart = r.Start
	}
	if r.Start.After(p.MaxStart) {
		p.MaxStart = r.Start
	}
}

// observeSketch folds one per-peer sketch into the partial: summarized
// probe counts land straight in the group's histogram buckets (no
// per-record replay), and the freshness marks advance by the sketch's
// exact time range.
func (p *Partial) observeSketch(kb []byte, sk *probe.Sketch) {
	p.group(kb).AddSketch(sk)
	p.Records += sk.Records()
	if p.MinStart.IsZero() || sk.MinStart.Before(p.MinStart) {
		p.MinStart = sk.MinStart
	}
	if sk.MaxStart.After(p.MaxStart) {
		p.MaxStart = sk.MaxStart
	}
}

// specState is one spec's fold state: per-window partials plus a one-entry
// cache of the window the last record landed in (records arrive in rough
// time order, so the cache turns the per-record map lookup into a compare).
type specState struct {
	spec    FoldSpec
	every   int64 // spec window length in folder windows
	windows map[int64]*Partial
	curIdx  int64
	cur     *Partial
	// floor is the lowest window still retained (DropWindowsBefore): what
	// folds below it is late — its result is already published — and is
	// counted instead of aggregated.
	floor int64
}

// noWindow is a window index no record has.
const noWindow = math.MinInt64

// Folder folds sealed extents into per-(spec, window) partials. Its base
// windows are the system's one grid, probe.WindowIndex — the grid agents cut
// their sketches on — numbered from the anchor's; a spec's windows are
// [Anchor+k*W, Anchor+(k+1)*W) for integer k, W being the spec's window
// length, so every cadence shares the one anchor. The DSA pipeline anchors at
// the Unix epoch, which puts hours and days on UTC's. A Folder is
// not safe for concurrent use — the DSA pipeline serializes fold passes and
// cycle reads (which copy via Partial.Merge) under its pass lock, and a
// pass that decodes on several cores gives every core but one a Fork.
type Folder struct {
	// Anchor is the start of window 0 of every spec. It lies on the grid.
	Anchor time.Time
	// Window is the base fold window length (the 10-minute DSA cadence).
	Window time.Duration
	// Tracer, if non-nil, re-attaches sampled end-to-end traces to the raw
	// records folded (an ingest span each); matched IDs accumulate until
	// TakeTraces. With no trace in flight the per-record cost is one atomic
	// load (TestIngestTraceUnsampledZeroAlloc).
	Tracer *trace.Tracer

	origin int64 // probe.WindowIndex of Anchor
	specs  []*specState

	// Extent-level tallies. Scanned/ParseErrors are window-free (records are
	// counted before any filter), so a cycle's totals are these plus its span
	// folder's — what one fold of every extent would have counted.
	scanned     uint64
	parseErrors uint64
	extents     uint64
	late        uint64
	lastFold    time.Time

	sc     probe.Scanner
	keyBuf []byte
	rep    probe.Record // representative record for the current sketch
	traces []trace.TraceID
	idle   []*Folder // absorbed forks, emptied: the next Fork reuses one
}

// NewFolder returns a folder for the given specs. It panics on an anchor off
// the window grid and on a spec whose Window is not a whole multiple of
// window: the job table is code, not input.
func NewFolder(anchor time.Time, window time.Duration, specs []FoldSpec, tracer *trace.Tracer) *Folder {
	if anchor.UnixNano()%int64(window) != 0 {
		panic(fmt.Sprintf("scope: anchor %v is off the %v window grid", anchor, window))
	}
	f := &Folder{Anchor: anchor, Window: window, Tracer: tracer, origin: probe.WindowIndex(anchor, window)}
	for _, sp := range specs {
		every := int64(1)
		if sp.Window != 0 {
			if sp.Window < window || sp.Window%window != 0 {
				panic(fmt.Sprintf("scope: spec %q window %v is not a multiple of the fold window %v", sp.Name, sp.Window, window))
			}
			every = int64(sp.Window / window)
		}
		f.specs = append(f.specs, &specState{
			spec:    sp,
			every:   every,
			windows: make(map[int64]*Partial),
			curIdx:  noWindow,
			floor:   noWindow,
		})
	}
	return f
}

// allTime is the window of a span folder: anchored at the Unix epoch, every
// Start from 1970 on lies in window 0 (and any earlier one in window -1).
const allTime = time.Duration(math.MaxInt64)

// newSpanFolder returns a folder for one pass of an ad-hoc job over
// [from, to) — zero sides unbounded — that is read with result and thrown
// away. The spec's filter also takes only records starting in the span, its
// Window is cleared, and the folder's one window covers all time, so the
// spec folds into one partial per group however many grid windows the span
// crosses.
func newSpanFolder(spec FoldSpec, from, to time.Time) *Folder {
	where := spec.Where
	spec.Where = func(r *probe.Record) bool {
		return (from.IsZero() || !r.Start.Before(from)) && (to.IsZero() || r.Start.Before(to)) &&
			(where == nil || where(r))
	}
	spec.Window = 0
	return NewFolder(time.Unix(0, 0).UTC(), allTime, []FoldSpec{spec}, nil)
}

// result returns what the folder folded for the spec, every window merged,
// with the folder's scan tallies. It takes the partials rather than copying
// them: the folder must fold nothing more afterwards.
func (f *Folder) result(spec string) *Result {
	res := &Result{Partial: *NewPartial(), Scanned: f.scanned, ParseErrors: f.parseErrors}
	for _, part := range f.state(spec).windows {
		res.Absorb(part)
	}
	return res
}

// Fork returns an empty folder on the same grid, specs, retention floors and
// tracer: a lane that folds its share of a pass's chunks beside f and is
// then Absorbed. It reuses a fork f has absorbed, if there is one.
func (f *Folder) Fork() *Folder {
	var fork *Folder
	if n := len(f.idle); n > 0 {
		fork, f.idle = f.idle[n-1], f.idle[:n-1]
	} else {
		specs := make([]FoldSpec, len(f.specs))
		for i, ss := range f.specs {
			specs[i] = ss.spec
		}
		fork = NewFolder(f.Anchor, f.Window, specs, f.Tracer)
	}
	for i, ss := range f.specs {
		fork.specs[i].floor = ss.floor
	}
	return fork
}

// Absorb adds everything o — a Fork of f — has folded to f: partials
// (exact merges, so the order chunks were dealt to lanes in does not show),
// tallies and matched traces. It takes o's aggregates rather than copying
// them — only a group both hold is merged — and keeps o, emptied, for the
// next Fork: o must not be used afterwards.
func (f *Folder) Absorb(o *Folder) {
	for i, ss := range o.specs {
		dst := f.specs[i].windows
		for idx, part := range ss.windows {
			if cur := dst[idx]; cur != nil {
				cur.Absorb(part)
			} else {
				dst[idx] = part
			}
		}
		clear(ss.windows)
		ss.cur, ss.curIdx = nil, noWindow
	}
	f.scanned += o.scanned
	f.parseErrors += o.parseErrors
	f.extents += o.extents
	f.late += o.late
	if o.lastFold.After(f.lastFold) {
		f.lastFold = o.lastFold
	}
	for _, tid := range o.traces {
		if !slices.Contains(f.traces, tid) {
			f.traces = append(f.traces, tid)
		}
	}
	o.scanned, o.parseErrors, o.extents, o.late = 0, 0, 0, 0
	o.lastFold, o.traces = time.Time{}, o.traces[:0]
	f.idle = append(f.idle, o)
}

// floorDiv is a/b rounded towards minus infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// windowIndex returns the index of the base window holding t.
func (f *Folder) windowIndex(t time.Time) int64 {
	return probe.WindowIndex(t, f.Window) - f.origin
}

// state returns the fold state of the named spec, which must be one of the
// folder's.
func (f *Folder) state(spec string) *specState {
	for _, ss := range f.specs {
		if ss.spec.Name == spec {
			return ss
		}
	}
	panic(fmt.Sprintf("scope: folder has no spec %q", spec))
}

// WindowOf returns the index of the spec's window holding t.
func (f *Folder) WindowOf(spec string, t time.Time) int64 {
	return floorDiv(f.windowIndex(t), f.state(spec).every)
}

// Span reports whether folded partials can serve [from, to) for the spec —
// it is a whole number of the spec's windows, on the grid, none of them
// dropped — and if so which windows: [lo, hi).
func (f *Folder) Span(spec string, from, to time.Time) (lo, hi int64, ok bool) {
	ss := f.state(spec)
	w := time.Duration(ss.every) * f.Window
	if !to.After(from) || from.Sub(f.Anchor)%w != 0 || to.Sub(from)%w != 0 {
		return 0, 0, false
	}
	lo = floorDiv(f.windowIndex(from), ss.every)
	return lo, lo + int64(to.Sub(from)/w), lo >= ss.floor
}

// FoldExtent folds one extent's bytes — or the last of its chunks — into the
// per-(spec, window) partials and counts the extent folded at the given time.
func (f *Folder) FoldExtent(data []byte, at time.Time) {
	f.FoldChunk(data)
	f.extents++
	f.lastFold = at
}

// FoldChunk folds a run of whole upload batches — an extent, or one of the
// chunks probe.SplitBatches cuts it into — into the per-(spec, window)
// partials. Folding is a sum over entries, so an extent's chunks folded in
// any order, here or on forks, leave what folding it whole leaves. data is
// only read during the call (the cosmos zero-copy aliasing contract); nothing
// the folder retains aliases it. The steady-state loop allocates nothing per
// record (TestFoldExtentZeroAlloc).
//
// Binary extents fold their sketches straight into the partials' histogram
// buckets: filters and keyers see a representative record (identity fields
// plus Start = MinStart), and the whole sketch lands in MinStart's window
// — sound because the agent cuts sketches on the analysis window grid, so
// a sketch never straddles a window boundary.
func (f *Folder) FoldChunk(data []byte) {
	f.sc.Reset(data)
	for {
		kind := f.sc.ScanEntry()
		if kind == probe.EntryEOF {
			break
		}
		if f.sc.RowErr() != nil {
			f.parseErrors++
			continue
		}
		var r *probe.Record
		var sk *probe.Sketch
		if kind == probe.EntrySketch {
			sk = f.sc.Sketch()
			sk.FillRecord(&f.rep)
			r = &f.rep
			f.scanned += sk.Records()
		} else {
			r = f.sc.Record()
			f.scanned++
			if f.Tracer != nil && f.Tracer.HasActiveProbes() {
				f.matchTrace(r)
			}
		}
		base := f.windowIndex(r.Start)
		late := false
		for _, ss := range f.specs {
			if ss.spec.Where != nil && !ss.spec.Where(r) {
				continue
			}
			kb, ok := ss.spec.KeyBytes(f.keyBuf[:0], r)
			if !ok {
				continue
			}
			f.keyBuf = kb[:0]
			idx := base
			if ss.every != 1 {
				idx = floorDiv(base, ss.every)
			}
			if idx != ss.curIdx {
				if idx < ss.floor {
					late = true
					continue
				}
				p := ss.windows[idx]
				if p == nil {
					p = NewPartial()
					p.talliesOnly = ss.spec.TalliesOnly
					ss.windows[idx] = p
				}
				ss.curIdx, ss.cur = idx, p
			}
			if sk != nil {
				ss.cur.observeSketch(kb, sk)
			} else {
				ss.cur.observe(kb, r)
			}
		}
		if late {
			if sk != nil {
				f.late += sk.Records()
			} else {
				f.late++
			}
		}
	}
}

func (f *Folder) matchTrace(r *probe.Record) {
	if tid := f.Tracer.MatchProbe(r.Src, r.SrcPort, r.Start.UnixNano()); tid != 0 {
		now := f.Tracer.Now()
		f.Tracer.Ring("scope").Span(tid, trace.StageIngest, "fold", now, now, true)
		if !slices.Contains(f.traces, tid) {
			f.traces = append(f.traces, tid)
		}
	}
}

// Partial returns the live partial for (spec name, window index), or nil
// if nothing folded into it. Callers must not mutate it — Merge into a
// fresh Partial to consume.
func (f *Folder) Partial(spec string, win int64) *Partial {
	return f.state(spec).windows[win]
}

// DropWindowsBefore forgets the spec's partials for windows strictly below
// min and folds nothing into them again, bounding memory across a
// long-running pipeline: a published window is never read from partials
// again, and what arrives for it afterwards is counted in Late. The floor
// only rises.
func (f *Folder) DropWindowsBefore(spec string, min int64) {
	ss := f.state(spec)
	if min <= ss.floor {
		return
	}
	ss.floor = min
	for idx := range ss.windows {
		if idx < min {
			delete(ss.windows, idx)
		}
	}
	if ss.curIdx < min {
		ss.cur, ss.curIdx = nil, noWindow
	}
}

// Scanned returns the records decoded across all folded extents.
func (f *Folder) Scanned() uint64 { return f.scanned }

// ParseErrors returns undecodable rows skipped across all folded extents.
func (f *Folder) ParseErrors() uint64 { return f.parseErrors }

// Late returns how many probes (sketches counted by what they summarize)
// arrived for a window some spec had already dropped.
func (f *Folder) Late() uint64 { return f.late }

// Extents returns how many extents this folder has folded.
func (f *Folder) Extents() uint64 { return f.extents }

// LastFold returns when the folder last folded an extent (zero if never):
// the fold-lag freshness mark.
func (f *Folder) LastFold() time.Time { return f.lastFold }

// TakeTraces returns and clears the sampled trace IDs matched during
// folding; the cycle that consumes the partials completes them.
func (f *Folder) TakeTraces() []trace.TraceID {
	t := f.traces
	f.traces = nil
	return t
}
