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
	// Where optionally filters records. Where and KeyBytes answer only from
	// what a sketch states of every probe in it — identity, success and
	// 10-minute grid window — or a run folds wrongly: the folder resolves
	// consecutive raw records that agree on all three once (FoldChunk).
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
	if o.Records > 0 {
		p.note(o.Records, o.MinStart, o.MaxStart)
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

// note counts n records starting in [lo, hi] folded into the partial.
func (p *Partial) note(n uint64, lo, hi time.Time) {
	p.Records += n
	if p.MinStart.IsZero() || lo.Before(p.MinStart) {
		p.MinStart = lo
	}
	if hi.After(p.MaxStart) {
		p.MaxStart = hi
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
	runSt *analysis.LatencyStats // cur's group the run lands in, nil if none
}

// run is the last resolution, valid within one FoldChunk call: a raw record
// with its identity and success (all FoldSpec.Where may read besides the
// window) and a Start in [lo, hi), its base and grid window in Unix ns, lands
// in every spec's runSt, late if the run is.
type run struct {
	id     probe.Record // identity fields only
	ok     bool
	lo, hi int64
	late   bool
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

	origin      int64 // probe.WindowIndex of Anchor
	specs       []*specState
	first, last int64 // the Starts folded, in Unix ns: [first, last] (newSpanFolder)
	run         run

	// Extent-level tallies. Scanned/ParseErrors are window-free (records are
	// counted before any filter), so a cycle's totals are these plus its span
	// folder's — what one fold of every extent would have counted.
	scanned     uint64
	parseErrors uint64
	extents     uint64
	late        uint64
	entries     uint64
	resolves    uint64
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
	f := &Folder{Anchor: anchor, Window: window, Tracer: tracer, origin: probe.WindowIndex(anchor, window),
		first: math.MinInt64, last: math.MaxInt64}
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
// away. The folder takes only entries starting in the span, the spec's
// Window is cleared, and the folder's one window covers all time, so the
// spec folds into one partial per group however many grid windows the span
// crosses.
func newSpanFolder(spec FoldSpec, from, to time.Time) *Folder {
	spec.Window = 0
	f := NewFolder(time.Unix(0, 0).UTC(), allTime, []FoldSpec{spec}, nil)
	if !from.IsZero() {
		f.first = from.UnixNano()
	}
	if !to.IsZero() {
		f.last = to.UnixNano() - 1
	}
	return f
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

// Fork returns an empty folder on the same grid, specs, span, retention
// floors and tracer: a lane that folds its share of a pass's chunks beside f
// and is then Absorbed. It reuses a fork f has absorbed, if there is one.
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
	fork.first, fork.last = f.first, f.last
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
	f.entries += o.entries
	f.resolves += o.resolves
	if o.lastFold.After(f.lastFold) {
		f.lastFold = o.lastFold
	}
	for _, tid := range o.traces {
		if !slices.Contains(f.traces, tid) {
			f.traces = append(f.traces, tid)
		}
	}
	o.scanned, o.parseErrors, o.extents, o.late, o.entries, o.resolves = 0, 0, 0, 0, 0, 0
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
// A raw record whose identity, success and window equal the entry's before
// it lands where that one did, unresolved (FoldSpec.Where).
//
// Binary extents fold their sketches straight into the partials' histogram
// buckets: filters and keyers see a representative record (identity fields
// plus Start = MinStart), and the whole sketch lands in MinStart's window
// — sound because the agent cuts sketches on the analysis window grid, so
// a sketch never straddles a window boundary. A sketch always resolves: an
// agent cuts one per (peer, window), so two in a row never share a key.
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
		n, last := uint64(1), time.Time{} // the entry's probes and last Start
		if kind == probe.EntrySketch {
			sk = f.sc.Sketch()
			sk.FillRecord(&f.rep)
			r, n, last = &f.rep, sk.Records(), sk.MaxStart
		} else {
			r = f.sc.Record()
			last = r.Start
			if f.Tracer != nil && f.Tracer.HasActiveProbes() {
				f.matchTrace(r)
			}
		}
		f.scanned += n
		ns := r.Start.UnixNano()
		if ns < f.first || ns > f.last {
			continue
		}
		f.entries++
		u := &f.run
		if sk != nil || ns < u.lo || ns >= u.hi || r.Src != u.id.Src || r.Dst != u.id.Dst || r.DstPort != u.id.DstPort ||
			r.Class != u.id.Class || r.Proto != u.id.Proto || r.QoS != u.id.QoS || r.PayloadLen != u.id.PayloadLen || (r.Err == "") != u.ok {
			f.resolves++
			f.startRun(r, ns)
		}
		for _, ss := range f.specs {
			if ss.runSt == nil {
				continue
			}
			if sk != nil {
				ss.runSt.AddSketch(sk)
			} else {
				ss.runSt.Add(r)
			}
			ss.cur.note(n, r.Start, last)
		}
		if u.late {
			f.late += n
		}
	}
	// Within a call no window is dropped; past it, the run must not keep a
	// dropped partial alive.
	f.run.lo, f.run.hi = 0, 0
	for _, ss := range f.specs {
		ss.runSt = nil
	}
}

// startRun starts a run at r, whose Start is ns: it evaluates every spec on r
// and sets where r lands, the window partial ss.cur and its group ss.runSt
// (nil where the spec skips r or r is late).
func (f *Folder) startRun(r *probe.Record, ns int64) {
	w, u := int64(f.Window), &f.run
	base := floorDiv(ns, w)
	u.lo, u.hi = base*w, base*w+w
	if f.Window != probe.Window { // the base window may cross the grid's
		g := floorDiv(ns, int64(probe.Window)) * int64(probe.Window)
		u.lo, u.hi = max(u.lo, g), min(u.hi, g+int64(probe.Window))
	}
	if ns < u.lo || ns >= u.hi { // a window past int64's nanoseconds: no run
		u.hi = u.lo
	}
	u.id.Src, u.id.Dst, u.id.DstPort, u.id.Class, u.id.Proto, u.id.QoS, u.id.PayloadLen, u.ok =
		r.Src, r.Dst, r.DstPort, r.Class, r.Proto, r.QoS, r.PayloadLen, r.Err == ""
	u.late = false
	for _, ss := range f.specs {
		if ss.runSt = nil; ss.spec.Where != nil && !ss.spec.Where(r) {
			continue
		}
		kb, ok := ss.spec.KeyBytes(f.keyBuf[:0], r)
		if !ok {
			continue
		}
		f.keyBuf = kb[:0]
		idx := base - f.origin
		if ss.every != 1 {
			idx = floorDiv(idx, ss.every)
		}
		if idx != ss.curIdx {
			if idx < ss.floor {
				u.late = true
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
		ss.runSt = ss.cur.group(kb)
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

// Entries returns the entries folded, and Resolves those of them resolved;
// the rest joined the run of the raw record before them.
func (f *Folder) Entries() uint64  { return f.entries }
func (f *Folder) Resolves() uint64 { return f.resolves }

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
