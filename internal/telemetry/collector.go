package telemetry

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
)

// Collector is the receiving side of the telemetry plane: it ingests PMT1
// reports from the whole fleet and periodically samples rollups of them,
// keyed by the scope hierarchy (fleet, DC, podset, pod), into ring-buffer
// time series. Counters sum exactly across agents; histograms merge
// bucket-for-bucket via Runs.AddTo, so a fleet percentile is bit-identical
// to one histogram fed every agent's observations. Per-agent state is two
// words (last applied seq, last report time) — a million agents cost tens
// of megabytes, not gigabytes.
//
// A report folds once, into the cells of its own scope (its leaf): one
// scope lookup, then per metric the leaf's cell after the one the previous
// metric matched — agents of a pod emit the same names in the same order,
// so a map lookup is needed only where a report skips a zero delta — and
// each histogram's runs walked once. The levels above a pod are derived —
// integer sums of the leaves under them, recomputed by SampleRollups into a
// table it keeps and summed on demand by the Rollup readers — so a derived
// level is bit-identical to one folded report by report. Only leaves
// shallower than a pod (a process reporting at "d0", or at no scope) also
// appear in the derived table, because such a scope may be other agents'
// ancestor; a pod's cells, the bulk, exist once.
//
// Nothing is collector-wide on the ingest path. Leaves live in
// collectorStripes stripes chosen by a hash of the (cut) scope, so a pod's
// cells sit in exactly one; the agent seq/ack table is striped by a hash of
// src, so an agent is one entry whatever scope it reports under. The lock
// order is agent stripe, then scope stripe, and Ingest holds the agent
// stripe across check, fold and the lastApplied update: two simultaneous
// deliveries of one report fold once. Each report is atomic — it is parsed
// completely before anything is applied, and applied under one scope
// stripe's lock — but a read or sample that runs beside ingest visits the
// stripes one after another, so what it returns is a sum of whole reports,
// not a stop-the-world snapshot.
//
// Delta/ack rules, per report (seq, base) against the agent's lastApplied:
//
//	unknown agent, base == 0  fold as-is, register       (first contact)
//	unknown agent, base != 0  409 resync                 (collector restarted)
//	base == 0                 fold as-is                 (agent restart/rebase)
//	seq == lastApplied        ack only, no fold          (retry of applied report)
//	base == lastApplied       fold deltas                (the normal path)
//	anything else             409 resync
//
// The duplicate rule makes retries idempotent; the base==lastApplied rule
// makes loss harmless (the next report re-carries a lost one's deltas);
// 409 tells the agent to rebase, which never double-counts. Gauge rollups
// are sums of shipped deltas — exact for live agents, but a departed
// agent's last contribution lingers until the collector restarts
// (counters and histograms have no such drift).
type Collector struct {
	clock    simclock.Clock
	store    *Store
	interval time.Duration
	reg      *metrics.Registry
	seed     maphash.Seed

	agents [collectorStripes]agentStripe
	scopes [collectorStripes]scopeStripe

	// sampleMu serialises SampleRollups; it guards upper and every leaf's
	// ups. Taken before a scope stripe's lock, never by Ingest.
	sampleMu sync.Mutex
	upper    map[string]*level

	cReports        *metrics.Counter
	cBytes          *metrics.Counter
	cDuplicates     *metrics.Counter
	cResyncs        *metrics.Counter
	cResyncsUnknown *metrics.Counter
	cResyncsBase    *metrics.Counter
	cRejects        *metrics.Counter
	cRefused        *metrics.Counter
	gAgents         *metrics.Gauge
	gRollupWallUS   *metrics.Gauge
	gRollupCells    *metrics.Gauge
}

// collectorStripes is how many ways the agent table and the leaf table are
// each split. Fixed, not configured: two reports in flight meet on a stripe
// one time in sixteen, and a stripe costs a mutex and a map header, so
// there is nothing here for an operator to tune.
const collectorStripes = 16

// agentStripe is one slice of the seq/ack table. At a million agents the
// per-agent state must stay a couple of words.
type agentStripe struct {
	mu     sync.Mutex
	index  map[string]int32
	states []agentSt
}

type agentSt struct {
	lastApplied uint64
	lastNS      int64
}

// scopeStripe is one slice of the leaf table.
type scopeStripe struct {
	mu     sync.Mutex
	leaves map[string]*leaf
}

// leaf holds the cells of one scope as agents name it, cut to three
// segments: the only place a report's deltas are added.
type leaf struct {
	scope string
	// series is the level the cells are sampled as: the scope itself for a
	// pod (three segments, nobody's ancestor, so its cells are its level's
	// values), "" for a shallower leaf, whose level is derived.
	series string
	// order holds the cells in first-seen order, which is the order the
	// pod's agents emit them in. cells indexes it by key and is the
	// authority when the next cell in order is not the one wanted.
	order []*rollup
	cells map[string]int32 // position in order, by kind byte + metric name
	ups   []*level         // the derived levels the cells sum into; nil until first sampled
}

// level is one derived scope level: "fleet", a DC or a podset.
type level struct {
	name  string
	cells map[string]*rollup
}

const (
	kindCounter = 'c'
	kindGauge   = 'g'
	kindHist    = 'h'
)

// fleetLevel names the root level, the sum of every leaf; no scope may
// start with it.
const fleetLevel = "fleet"

// rollup is one (scope, metric) aggregation cell. Series keys are
// precomputed at creation so sampling allocates nothing; a cell that is
// never sampled (a leaf's above the pod level) has none.
type rollup struct {
	key  string // kind byte + metric name
	kind byte
	val  int64
	hist *metrics.Histogram
	key0 string // counter/gauge series, or histogram p50
	key1 string // histogram p99
}

// newRollup returns an empty cell for the metric key (kind byte + name);
// series names the level it is sampled as, "" for an unsampled one.
func newRollup(series, key string) *rollup {
	r := &rollup{key: key, kind: key[0]}
	if r.kind == kindHist {
		r.hist = metrics.NewLatencyHistogram()
	}
	if series == "" {
		return r
	}
	name := key[1:]
	switch r.kind {
	case kindCounter:
		r.key0 = series + "/counter/" + name
	case kindGauge:
		r.key0 = series + "/gauge/" + name
	case kindHist:
		r.key0 = series + "/p50/" + name
		r.key1 = series + "/p99/" + name
	}
	return r
}

// CollectorConfig configures a Collector. The zero value works.
type CollectorConfig struct {
	// Clock drives ingest timestamps and the sampling loop. nil = wall.
	Clock simclock.Clock
	// SampleInterval is Run's rollup sampling cadence — the §3.5 5-minute
	// perfcounter path. Default 5 minutes.
	SampleInterval time.Duration
}

// NewCollector returns an empty collector.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewReal()
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 5 * time.Minute
	}
	c := &Collector{
		clock:    cfg.Clock,
		store:    NewStore(),
		interval: cfg.SampleInterval,
		reg:      metrics.NewRegistry(),
		seed:     maphash.MakeSeed(),
		upper:    map[string]*level{},
	}
	for i := range c.agents {
		c.agents[i].index = map[string]int32{}
		c.scopes[i].leaves = map[string]*leaf{}
	}
	c.cReports = c.reg.Counter("telemetry.reports")
	c.cBytes = c.reg.Counter("telemetry.report_bytes")
	c.cDuplicates = c.reg.Counter("telemetry.duplicates")
	c.cResyncs = c.reg.Counter("telemetry.resyncs")
	c.cResyncsUnknown = c.reg.Counter("telemetry.resyncs_unknown_agent")
	c.cResyncsBase = c.reg.Counter("telemetry.resyncs_base_mismatch")
	c.cRejects = c.reg.Counter("telemetry.rejects")
	c.cRefused = c.reg.Counter("telemetry.refused_src")
	c.gAgents = c.reg.Gauge("telemetry.agents")
	c.gRollupWallUS = c.reg.Gauge("telemetry.rollup_wall_us")
	c.gRollupCells = c.reg.Gauge("telemetry.rollup_cells")
	return c
}

// Metrics returns the collector's own registry (ingest counters).
func (c *Collector) Metrics() *metrics.Registry { return c.reg }

// Store returns the time-series store the rollups are sampled into.
func (c *Collector) Store() *Store { return c.store }

// IngestResult is the collector's verdict on one report.
type IngestResult struct {
	// Ack is the seq the agent should consider applied (on success and on
	// duplicates).
	Ack uint64
	// Resync tells the agent its delta base is unknown here: rebase and
	// send a self-contained report.
	Resync bool
	// LastApplied is the collector's high-water mark for the agent,
	// informational on resyncs.
	LastApplied uint64
	// Duplicate marks a retry of an already-applied report.
	Duplicate bool
}

// parsedEntry is one metric of a report drained into Ingest's scratch. It
// holds no pointer into the scratch, which would move the scratch to the
// heap: its key and its histogram's runs are offsets into it.
type parsedEntry struct {
	lo, hi   int32        // the cell key, kind byte + name, within the scratch's key bytes
	rlo, rhi int32        // a histogram's runs within the scratch's runs
	delta    int64        // counter or gauge
	hist     metrics.Runs // a histogram's tallies
}

// Ingest validates and folds one PMT1 report. The report is parsed once,
// outside any lock, into scratch on Ingest's own stack, and nothing is
// applied until the parser has accepted the last byte — a report that is
// corrupt at byte 900 cannot leave half its deltas behind. Its deltas are
// then added to the cells of its own scope under that scope's stripe (see
// Collector for the locking and what concurrent readers observe).
// Steady-state ingest performs no allocations (CI tier 3 guards this); the
// allocating paths are an agent's, scope's or metric's first appearance and
// a report with more metrics, or histogram runs, than the scratch holds.
func (c *Collector) Ingest(data []byte, now time.Time) (IngestResult, error) {
	// The scratch is per call and on the stack rather than pooled: the race
	// runtime drops sync.Pool items on purpose, which would make the
	// zero-alloc guard fail exactly where tier 2c runs it.
	var (
		p      Parser
		keyBuf [512]byte
		entBuf [32]parsedEntry
		runBuf [256]uint64
	)
	keys, ents, runs, scope, err := parseReport(&p, data, keyBuf[:0], entBuf[:0], runBuf[:0])
	if err != nil {
		c.cRejects.Inc()
		return IngestResult{}, err
	}
	src, seq, base := p.Src(), p.Seq(), p.Base()

	as := &c.agents[c.stripeOf(src)]
	as.mu.Lock()
	defer as.mu.Unlock()
	idx, known := as.index[string(src)]
	if !known {
		if base != 0 {
			c.cResyncs.Inc()
			c.cResyncsUnknown.Inc()
			return IngestResult{Resync: true}, nil
		}
		idx = int32(len(as.states))
		as.states = append(as.states, agentSt{})
		as.index[string(src)] = idx
		c.gAgents.Add(1)
	}
	st := &as.states[idx]
	switch {
	case known && seq != 0 && seq == st.lastApplied:
		// Retry of a report we already applied (its ack was lost): ack
		// again without folding. Checked before the base rules so a resent
		// self-contained report cannot fold twice.
		st.lastNS = now.UnixNano()
		c.cDuplicates.Inc()
		return IngestResult{Ack: seq, Duplicate: true, LastApplied: st.lastApplied}, nil
	case base == 0:
		// Self-contained: first contact, agent restart, or post-resync
		// rebase. Fold as-is.
	case base != st.lastApplied:
		c.cResyncs.Inc()
		c.cResyncsBase.Inc()
		return IngestResult{Resync: true, LastApplied: st.lastApplied}, nil
	}

	ss := &c.scopes[c.stripeOf(scope)]
	ss.mu.Lock()
	lf, ok := ss.leaves[string(scope)]
	if !ok {
		lf = &leaf{scope: string(scope), cells: map[string]int32{}}
		if strings.Count(lf.scope, ".") == 2 {
			lf.series = lf.scope
		}
		ss.leaves[lf.scope] = lf
	}
	at := -1 // the position the previous metric's cell holds in lf.order
	for i := range ents {
		e := &ents[i]
		key := keys[e.lo:e.hi]
		if at++; at >= len(lf.order) || lf.order[at].key != string(key) {
			at = lf.cellAt(key)
		}
		r := lf.order[at]
		if r.kind == kindHist {
			e.hist.WithRuns(runs[e.rlo:e.rhi]).AddTo(r.hist)
		} else {
			r.val += e.delta
		}
	}
	ss.mu.Unlock()

	st.lastApplied = seq
	st.lastNS = now.UnixNano()
	c.cReports.Inc()
	c.cBytes.Add(int64(len(data)))
	return IngestResult{Ack: seq, LastApplied: seq}, nil
}

// cellAt is Ingest's miss path: the position in order of the cell for key,
// appended if the leaf has none yet.
func (lf *leaf) cellAt(key []byte) int {
	if at, ok := lf.cells[string(key)]; ok {
		return int(at)
	}
	r := newRollup(lf.series, string(key))
	lf.cells[r.key] = int32(len(lf.order))
	lf.order = append(lf.order, r)
	return len(lf.order) - 1
}

var (
	errEmptySrc      = errors.New("telemetry: report with empty src")
	errScopeSegment  = errors.New("telemetry: scope has an empty segment")
	errScopeReserved = errors.New(`telemetry: scope starts with the reserved name "fleet"`)
)

// parseReport parses the whole of data, appending each metric's cell key
// to keys, its entry to ents and a histogram's runs to runs, and returns
// all three with the scope the report folds under. Any error means the
// report is refused whole: corrupt bytes, no src, an illegal scope.
// Histogram entries with no observations are dropped, as absence means a
// zero delta.
func parseReport(p *Parser, data []byte, keys []byte, ents []parsedEntry, runs []uint64) ([]byte, []parsedEntry, []uint64, []byte, error) {
	if err := p.Reset(data); err != nil {
		return keys, ents, runs, nil, err
	}
	if len(p.Src()) == 0 {
		return keys, ents, runs, nil, errEmptySrc
	}
	scope, err := leafScope(p.Scope())
	if err != nil {
		return keys, ents, runs, nil, err
	}
	for {
		name, delta, ok := p.NextCounter()
		if !ok {
			break
		}
		e := parsedEntry{delta: int64(delta)} // at most maxWireCount
		keys, e.lo, e.hi = appendKey(keys, kindCounter, name)
		ents = append(ents, e)
	}
	for {
		name, delta, ok := p.NextGauge()
		if !ok {
			break
		}
		e := parsedEntry{delta: delta}
		keys, e.lo, e.hi = appendKey(keys, kindGauge, name)
		ents = append(ents, e)
	}
	for {
		rlo := len(runs)
		name, hd, ext, ok := p.NextHist(runs)
		if !ok {
			break
		}
		if hd.Count == 0 {
			continue
		}
		runs = ext
		e := parsedEntry{rlo: int32(rlo), rhi: int32(len(runs)),
			hist: metrics.Runs{Count: hd.Count, Sum: hd.Sum, Min: hd.Min, Max: hd.Max}}
		keys, e.lo, e.hi = appendKey(keys, kindHist, name)
		ents = append(ents, e)
	}
	return keys, ents, runs, scope, p.Err()
}

// appendKey appends a metric's cell key and returns where it lies.
func appendKey(keys []byte, kind byte, name []byte) ([]byte, int32, int32) {
	lo := len(keys)
	keys = append(append(keys, kind), name...)
	return keys, int32(lo), int32(len(keys))
}

// leafScope validates a report's scope path and returns the scope its
// deltas are added under: the path cut to its first three segments, the
// dc.podset.pod levels the collector keeps ("d0.s1.p2.r3" folds at
// "d0.s1.p2" and shows in fleet, d0, d0.s1 and d0.s1.p2). The empty scope
// is legal and counts towards fleet only. A path with an empty segment, or
// whose first segment is "fleet" — the name of the root level, which would
// otherwise receive the report twice — is an error.
func leafScope(scope []byte) ([]byte, error) {
	if len(scope) == 0 {
		return scope, nil
	}
	leaf := scope
	segs, start := 0, 0
	for i := 0; i <= len(scope); i++ {
		if i < len(scope) && scope[i] != '.' {
			continue
		}
		if i == start {
			return nil, errScopeSegment
		}
		segs++
		if segs == 1 && string(scope[:i]) == fleetLevel {
			return nil, errScopeReserved
		}
		if segs == 3 {
			leaf = scope[:i]
		}
		start = i + 1
	}
	return leaf, nil
}

// stripeOf picks the stripe for an agent's src or a leaf's scope.
func (c *Collector) stripeOf(b []byte) int {
	return int(maphash.Bytes(c.seed, b) % collectorStripes)
}

// SampleRollups appends every rollup's current value to the store: one
// point per counter and gauge, p50/p99 points (milliseconds, like the
// Perfcounter Aggregator's series) per histogram. A pod's cells are sampled
// where they are; the levels above are first re-derived, each as the sum of
// the leaves under it, in a table that persists between samples so the
// merge reuses its storage. Call it on the reporting cadence; Run does.
func (c *Collector) SampleRollups(now time.Time) {
	t0 := time.Now()
	c.sampleMu.Lock()
	defer c.sampleMu.Unlock()
	for _, lv := range c.upper {
		for _, r := range lv.cells {
			r.val = 0
			if r.kind == kindHist {
				r.hist.Reset()
			}
		}
	}
	cells := 0
	for i := range c.scopes {
		ss := &c.scopes[i]
		ss.mu.Lock()
		for _, lf := range ss.leaves {
			if lf.ups == nil {
				lf.ups = c.levelsAbove(lf.scope)
			}
			for _, r := range lf.order {
				for _, lv := range lf.ups {
					u, ok := lv.cells[r.key]
					if !ok {
						u = newRollup(lv.name, r.key)
						lv.cells[r.key] = u
					}
					if r.kind == kindHist {
						u.hist.Merge(r.hist)
					} else {
						u.val += r.val
					}
				}
				if lf.series != "" {
					c.sample(r, now)
					cells++
				}
			}
		}
		ss.mu.Unlock()
	}
	for _, lv := range c.upper {
		for _, r := range lv.cells {
			c.sample(r, now)
			cells++
		}
	}
	c.gRollupCells.Set(int64(cells))
	c.gRollupWallUS.Set(int64(time.Since(t0) / time.Microsecond))
}

// levelsAbove returns the derived levels a leaf's cells sum into: fleet
// and the scope's one- and two-segment prefixes — for a leaf shallower than
// a pod that includes the scope itself, which may be other leaves'
// ancestor.
func (c *Collector) levelsAbove(scope string) []*level {
	ups := []*level{c.level(fleetLevel)}
	for i := 1; i <= len(scope) && len(ups) < 3; i++ {
		if i == len(scope) || scope[i] == '.' {
			ups = append(ups, c.level(scope[:i]))
		}
	}
	return ups
}

func (c *Collector) level(name string) *level {
	lv, ok := c.upper[name]
	if !ok {
		lv = &level{name: name, cells: map[string]*rollup{}}
		c.upper[name] = lv
	}
	return lv
}

func (c *Collector) sample(r *rollup, now time.Time) {
	if r.kind == kindHist {
		c.store.Append(r.key0, now, float64(r.hist.Percentile(0.50))/1e6)
		c.store.Append(r.key1, now, float64(r.hist.Percentile(0.99))/1e6)
		return
	}
	c.store.Append(r.key0, now, float64(r.val))
}

// Run samples rollups on the configured interval until ctx is done.
func (c *Collector) Run(ctx context.Context) {
	ticker := c.clock.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.SampleRollups(c.clock.Now())
		}
	}
}

// AgentCount returns how many distinct agents have ever reported.
func (c *Collector) AgentCount() int { return int(c.gAgents.Value()) }

// StaleFraction returns the fraction of known agents whose last accepted
// report is older than staleAfter — the fleet-level watchdog signal that
// pages before any single component's staleness would.
func (c *Collector) StaleFraction(staleAfter time.Duration, now time.Time) float64 {
	cutoff := now.Add(-staleAfter).UnixNano()
	stale, total := 0, 0
	for i := range c.agents {
		as := &c.agents[i]
		as.mu.Lock()
		total += len(as.states)
		for j := range as.states {
			if as.states[j].lastNS < cutoff {
				stale++
			}
		}
		as.mu.Unlock()
	}
	if total == 0 {
		return 0
	}
	return float64(stale) / float64(total)
}

// RollupCounter returns the summed counter value for a scope level
// ("fleet", "d0", "d0.s1", "d0.s1.p2") and metric name.
func (c *Collector) RollupCounter(scope, name string) (int64, bool) {
	return c.rollupVal(scope, kindCounter, name)
}

// RollupGauge returns the summed gauge value for a scope level and name.
func (c *Collector) RollupGauge(scope, name string) (int64, bool) {
	return c.rollupVal(scope, kindGauge, name)
}

func (c *Collector) rollupVal(scope string, kind byte, name string) (v int64, ok bool) {
	c.cellsUnder(scope, string(kind)+name, func(r *rollup) {
		v += r.val
		ok = true
	})
	return v, ok
}

// RollupHistogram returns the merged histogram for a scope level and metric
// name; the caller owns it.
func (c *Collector) RollupHistogram(scope, name string) (*metrics.Histogram, bool) {
	var h *metrics.Histogram
	c.cellsUnder(scope, string(kindHist)+name, func(r *rollup) {
		if h == nil {
			h = metrics.NewLatencyHistogram()
		}
		h.Merge(r.hist)
	})
	return h, h != nil
}

// cellsUnder calls fn, under the owning stripe's lock, with the metric's
// cell in every leaf that counts towards the level named scope: the leaf of
// that name and the leaves below it, or all of them for "fleet". No level
// is named "" — the unscoped leaf counts towards fleet alone.
func (c *Collector) cellsUnder(scope, key string, fn func(*rollup)) {
	if scope == "" {
		return
	}
	lo, hi := 0, collectorStripes
	if strings.Count(scope, ".") >= 2 { // a pod: one leaf, in one stripe
		lo = int(maphash.String(c.seed, scope) % collectorStripes)
		hi = lo + 1
	}
	for i := lo; i < hi; i++ {
		ss := &c.scopes[i]
		ss.mu.Lock()
		for _, lf := range ss.leaves {
			if !scopeUnder(lf.scope, scope) {
				continue
			}
			if at, ok := lf.cells[key]; ok {
				fn(lf.order[at])
			}
		}
		ss.mu.Unlock()
	}
}

// scopeUnder reports whether a leaf's scope counts towards level.
func scopeUnder(leaf, level string) bool {
	return level == fleetLevel || leaf == level ||
		len(leaf) > len(level) && leaf[len(level)] == '.' && leaf[:len(level)] == level
}

// HTTP surface. The handler is standalone so pingmesh-controller mounts it
// beside the pinglist API; the plane is read on the debug port.

// MaxReportBytes bounds one report's decompressed size.
const MaxReportBytes = 4 << 20

var (
	ingestBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}
	gzipPool      sync.Pool // *gzip.Reader
)

// Handler returns the collector's HTTP surface:
//
//	POST /report   one PMT1 report (Content-Encoding: gzip honored);
//	               200 {"ack":N} | 409 {"resync":true,"lastApplied":N}
//	               | 403 when admit refuses the report's src
//
// Any other method on /report is a 405 with "Allow: POST". admit, when
// not nil, is asked about each well-formed report's src before it is
// ingested: a collector on an open listener passes the fleet's server
// names, so only a fleet server's name can add agents, scopes and metrics
// to its tables.
// Refusals count on telemetry.refused_src; the ingest counters are on the
// collector's Metrics registry.
func (c *Collector) Handler(admit func(src []byte) bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /report", func(w http.ResponseWriter, r *http.Request) {
		c.serveReport(w, r, admit)
	})
	return mux
}

func (c *Collector) serveReport(w http.ResponseWriter, r *http.Request, admit func([]byte) bool) {
	bufp := ingestBufPool.Get().(*[]byte)
	defer ingestBufPool.Put(bufp)
	var body io.Reader = http.MaxBytesReader(w, r.Body, MaxReportBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, _ := gzipPool.Get().(*gzip.Reader)
		if zr == nil {
			var err error
			if zr, err = gzip.NewReader(body); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad gzip body"})
				return
			}
		} else if err := zr.Reset(body); err != nil {
			gzipPool.Put(zr)
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad gzip body"})
			return
		}
		defer gzipPool.Put(zr)
		body = zr
	}
	data, err := readAll((*bufp)[:0], body)
	*bufp = data[:0]
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if admit != nil {
		// A report that does not parse falls through to Ingest's 400.
		var p Parser
		if p.Reset(data) == nil && !admit(p.Src()) {
			c.cRefused.Inc()
			writeJSON(w, http.StatusForbidden, map[string]string{"error": "telemetry: unknown src"})
			return
		}
	}
	res, err := c.Ingest(data, c.clock.Now())
	switch {
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case res.Resync:
		writeJSON(w, http.StatusConflict, map[string]any{
			"resync": true, "lastApplied": res.LastApplied,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ack": res.Ack})
	}
}

// readAll is io.ReadAll into a reusable buffer, bounded by MaxReportBytes.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		if len(dst) > MaxReportBytes {
			return dst, fmt.Errorf("telemetry: report exceeds %d bytes", MaxReportBytes)
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
