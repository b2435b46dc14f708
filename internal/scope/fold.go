package scope

import (
	"slices"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/probe"
	"pingmesh/internal/trace"
)

// FoldSpec is the window-free core of a recurring Job: the filter and
// grouping of a 10-minute analysis, registered once so every sealed extent
// can be folded into per-(spec, window) partials as it lands. The cycle
// then merges partials instead of re-decoding the extent.
type FoldSpec struct {
	// Name identifies the spec; it must match the recurring Job.Name the
	// cycle will assemble results for.
	Name string
	// Where optionally filters records, exactly as Job.Where.
	Where func(*probe.Record) bool
	// KeyBytes groups records, exactly as Job.KeyBytes (allocation-free
	// append-style keyer). Required: incremental specs are the hot path.
	KeyBytes func(dst []byte, r *probe.Record) ([]byte, bool)
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
}

// NewPartial returns an empty partial.
func NewPartial() *Partial {
	return &Partial{Groups: make(map[string]*analysis.LatencyStats)}
}

// Merge folds o into p. o is not mutated and shares no state with p
// afterwards (group aggregates are deep-copied on first sight), so live
// partials can keep folding while a cycle merges snapshots of them.
func (p *Partial) Merge(o *Partial) {
	for k, st := range o.Groups {
		if cur, ok := p.Groups[k]; ok {
			cur.Merge(st)
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

// observe folds one record's key into the partial. kb is the interned-on-
// first-sight group key (same idiom as extentSink.process).
func (p *Partial) observe(kb []byte, r *probe.Record) {
	st := p.Groups[string(kb)]
	if st == nil {
		st = analysis.NewLatencyStats()
		p.Groups[string(kb)] = st
	}
	st.Add(r)
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
	st := p.Groups[string(kb)]
	if st == nil {
		st = analysis.NewLatencyStats()
		p.Groups[string(kb)] = st
	}
	st.AddSketch(sk)
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
	windows map[int64]*Partial
	curIdx  int64
	cur     *Partial
}

// Folder folds sealed extents into per-(spec, window) partials. Windows
// are [Anchor+k*Window, Anchor+(k+1)*Window) for integer k. A Folder is
// not safe for concurrent use — the DSA pipeline serializes fold passes and
// cycle reads (which copy via Partial.Merge) under its pass lock, and a
// pass that decodes on several cores gives every core but one a Fork.
type Folder struct {
	// Anchor fixes the window grid origin.
	Anchor time.Time
	// Window is the fold window length (the 10-minute DSA cadence).
	Window time.Duration
	// Tracer, if non-nil, re-attaches sampled traces exactly as the scan
	// path does; matched IDs accumulate until TakeTraces.
	Tracer *trace.Tracer

	specs []*specState

	// Extent-level tallies. Scanned/ParseErrors are window-free (the scan
	// counts records before any filter), so a cycle's totals are these plus
	// the tail scan's — matching what a full re-scan would have counted.
	scanned     uint64
	parseErrors uint64
	extents     uint64
	lastFold    time.Time

	sc     probe.Scanner
	keyBuf []byte
	rep    probe.Record // representative record for the current sketch
	traces []trace.TraceID
}

// NewFolder returns a folder for the given specs.
func NewFolder(anchor time.Time, window time.Duration, specs []FoldSpec, tracer *trace.Tracer) *Folder {
	f := &Folder{Anchor: anchor, Window: window, Tracer: tracer}
	for _, sp := range specs {
		f.specs = append(f.specs, &specState{
			spec:    sp,
			windows: make(map[int64]*Partial),
			curIdx:  -1 << 62,
		})
	}
	return f
}

// Fork returns an empty folder on the same grid, specs and tracer: a lane
// that folds its share of a pass's extents beside f and is then Absorbed.
func (f *Folder) Fork() *Folder {
	specs := make([]FoldSpec, len(f.specs))
	for i, ss := range f.specs {
		specs[i] = ss.spec
	}
	return NewFolder(f.Anchor, f.Window, specs, f.Tracer)
}

// Absorb adds everything o — a Fork of f — has folded to f: partials
// (exact merges, so the order extents were dealt to lanes in does not show),
// tallies and matched traces. o must not be used afterwards.
func (f *Folder) Absorb(o *Folder) {
	for i, ss := range o.specs {
		dst := f.specs[i].windows
		for idx, part := range ss.windows {
			if cur := dst[idx]; cur != nil {
				cur.Merge(part)
			} else {
				dst[idx] = part
			}
		}
	}
	f.scanned += o.scanned
	f.parseErrors += o.parseErrors
	f.extents += o.extents
	if o.lastFold.After(f.lastFold) {
		f.lastFold = o.lastFold
	}
	for _, tid := range o.traces {
		if !slices.Contains(f.traces, tid) {
			f.traces = append(f.traces, tid)
		}
	}
}

// windowIndex returns the floor-division window index of t on the grid.
func (f *Folder) windowIndex(t time.Time) int64 {
	d := t.Sub(f.Anchor)
	idx := int64(d / f.Window)
	if d < 0 && d%f.Window != 0 {
		idx--
	}
	return idx
}

// Aligned reports whether [from, to) is exactly one grid window, i.e.
// whether folded partials can serve it.
func (f *Folder) Aligned(from, to time.Time) (int64, bool) {
	if to.Sub(from) != f.Window {
		return 0, false
	}
	d := from.Sub(f.Anchor)
	if d%f.Window != 0 {
		return 0, false
	}
	return f.windowIndex(from), true
}

// FoldExtent folds one sealed extent's bytes into the per-(spec, window)
// partials. data is only read during the call (the cosmos zero-copy
// aliasing contract); nothing the folder retains aliases it. The
// steady-state loop allocates nothing per record (TestFoldExtentZeroAlloc).
//
// Binary extents fold their sketches straight into the partials' histogram
// buckets: filters and keyers see a representative record (identity fields
// plus Start = MinStart), and the whole sketch lands in MinStart's window
// — sound because the agent cuts sketches on the analysis window grid, so
// a sketch never straddles a window boundary.
func (f *Folder) FoldExtent(data []byte, at time.Time) {
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
		idx := f.windowIndex(r.Start)
		for _, ss := range f.specs {
			if ss.spec.Where != nil && !ss.spec.Where(r) {
				continue
			}
			kb, ok := ss.spec.KeyBytes(f.keyBuf[:0], r)
			if !ok {
				continue
			}
			f.keyBuf = kb[:0]
			if idx != ss.curIdx || ss.cur == nil {
				p := ss.windows[idx]
				if p == nil {
					p = NewPartial()
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
	}
	f.extents++
	f.lastFold = at
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
	for _, ss := range f.specs {
		if ss.spec.Name == spec {
			return ss.windows[win]
		}
	}
	return nil
}

// DropWindowsBefore forgets partials for windows strictly below min,
// bounding memory across a long-running pipeline (published cycles never
// read old windows again).
func (f *Folder) DropWindowsBefore(min int64) {
	for _, ss := range f.specs {
		for idx := range ss.windows {
			if idx < min {
				delete(ss.windows, idx)
				if ss.curIdx == idx {
					ss.cur, ss.curIdx = nil, -1<<62
				}
			}
		}
	}
}

// Scanned returns the records decoded across all folded extents.
func (f *Folder) Scanned() uint64 { return f.scanned }

// ParseErrors returns undecodable rows skipped across all folded extents.
func (f *Folder) ParseErrors() uint64 { return f.parseErrors }

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
