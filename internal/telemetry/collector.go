package telemetry

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
)

// Collector is the receiving side of the telemetry plane: it ingests PMT1
// reports from the whole fleet, folds them into rollups keyed by the scope
// hierarchy (fleet, DC, podset, pod), and periodically samples those
// rollups into ring-buffer time series. Counters sum exactly across
// agents; histograms merge bucket-for-bucket via Runs.AddTo, so a fleet
// percentile is bit-identical to one histogram fed every agent's
// observations. Per-agent state is two words (last applied seq, last
// report time) — a million agents cost tens of megabytes, not gigabytes.
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

	mu      sync.Mutex
	parser  Parser
	agents  map[string]int32
	states  []agentSt
	rollups map[string]*rollup
	keyBuf  []byte
	levels  [4][]byte
	nLevels int

	cReports    *metrics.Counter
	cBytes      *metrics.Counter
	cDuplicates *metrics.Counter
	cResyncs    *metrics.Counter
	cRejects    *metrics.Counter
	gAgents     *metrics.Gauge
}

// agentSt is the entire per-agent state: at a million agents this must
// stay a couple of words.
type agentSt struct {
	lastApplied uint64
	lastNS      int64
}

const (
	kindCounter = 'c'
	kindGauge   = 'g'
	kindHist    = 'h'
)

// rollup is one (scope level, metric) aggregation cell. Series keys are
// precomputed at creation so sampling allocates nothing.
type rollup struct {
	kind byte
	val  int64
	hist *metrics.Histogram
	key0 string // counter/gauge series, or histogram p50
	key1 string // histogram p99
}

// CollectorConfig configures a Collector. The zero value works.
type CollectorConfig struct {
	// Clock drives ingest timestamps and the sampling loop. nil = wall.
	Clock simclock.Clock
	// Store receives the sampled rollup series. nil = NewStore(0, 0).
	Store *Store
	// SampleInterval is Run's rollup sampling cadence — the §3.5 5-minute
	// perfcounter path. Default 5 minutes.
	SampleInterval time.Duration
}

// NewCollector returns an empty collector.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewReal()
	}
	if cfg.Store == nil {
		cfg.Store = NewStore(0, 0)
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 5 * time.Minute
	}
	c := &Collector{
		clock:    cfg.Clock,
		store:    cfg.Store,
		interval: cfg.SampleInterval,
		reg:      metrics.NewRegistry(),
		agents:   map[string]int32{},
		rollups:  map[string]*rollup{},
	}
	c.cReports = c.reg.Counter("telemetry.reports")
	c.cBytes = c.reg.Counter("telemetry.report_bytes")
	c.cDuplicates = c.reg.Counter("telemetry.duplicates")
	c.cResyncs = c.reg.Counter("telemetry.resyncs")
	c.cRejects = c.reg.Counter("telemetry.rejects")
	c.gAgents = c.reg.Gauge("telemetry.agents")
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

// Ingest validates and folds one PMT1 report. The data is parsed twice —
// a validation pass, then a fold pass — so a report that is corrupt at
// byte 900 cannot leave half its deltas behind. Steady-state ingest
// performs no allocations (CI tier 3 guards this); the only allocating
// path is an agent's or metric's first appearance.
func (c *Collector) Ingest(data []byte, now time.Time) (IngestResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	p := &c.parser
	if err := c.validate(data); err != nil {
		c.cRejects.Inc()
		return IngestResult{}, err
	}
	// Validation re-parses the header, so the cheap fields are still set.
	if err := p.Reset(data); err != nil {
		c.cRejects.Inc()
		return IngestResult{}, err
	}
	src := p.Src()
	if len(src) == 0 {
		c.cRejects.Inc()
		return IngestResult{}, fmt.Errorf("telemetry: report with empty src")
	}
	seq, base := p.Seq(), p.Base()

	idx, known := c.agents[string(src)]
	if !known {
		if base != 0 {
			c.cResyncs.Inc()
			return IngestResult{Resync: true}, nil
		}
		idx = int32(len(c.states))
		c.states = append(c.states, agentSt{})
		c.agents[string(src)] = idx
		c.gAgents.Set(int64(len(c.states)))
	}
	st := &c.states[idx]
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
		return IngestResult{Resync: true, LastApplied: st.lastApplied}, nil
	}

	c.setLevels(p.Scope())
	for {
		name, delta, ok := p.NextCounter()
		if !ok {
			break
		}
		for l := 0; l < c.nLevels; l++ {
			c.cell(c.levels[l], kindCounter, name).val += int64(delta)
		}
	}
	for {
		name, delta, ok := p.NextGauge()
		if !ok {
			break
		}
		for l := 0; l < c.nLevels; l++ {
			c.cell(c.levels[l], kindGauge, name).val += delta
		}
	}
	for {
		name, hd, ok := p.NextHist()
		if !ok {
			break
		}
		if hd.Count == 0 {
			continue
		}
		for l := 0; l < c.nLevels; l++ {
			r := c.cell(c.levels[l], kindHist, name)
			if r.hist == nil {
				r.hist = metrics.NewLatencyHistogram()
			}
			hd.AddTo(r.hist)
		}
	}
	if err := p.Err(); err != nil {
		// Unreachable after a clean validation pass; fail loudly if the
		// two passes ever disagree.
		c.cRejects.Inc()
		return IngestResult{}, err
	}

	st.lastApplied = seq
	st.lastNS = now.UnixNano()
	c.cReports.Inc()
	c.cBytes.Add(int64(len(data)))
	return IngestResult{Ack: seq, LastApplied: seq}, nil
}

// validate drains the whole report without folding anything.
func (c *Collector) validate(data []byte) error {
	p := &c.parser
	if err := p.Reset(data); err != nil {
		return err
	}
	for {
		if _, _, ok := p.NextCounter(); !ok {
			break
		}
	}
	for {
		if _, _, ok := p.NextGauge(); !ok {
			break
		}
	}
	for {
		if _, _, ok := p.NextHist(); !ok {
			break
		}
	}
	return p.Err()
}

// setLevels splits a scope path into its rollup levels: the fleet root
// plus each dot-separated prefix ("d0.s1.p2" → fleet, d0, d0.s1,
// d0.s1.p2). Deeper paths fold into the deepest three levels plus fleet.
func (c *Collector) setLevels(scope []byte) {
	c.levels[0] = fleetLevel
	c.nLevels = 1
	for i := 0; i <= len(scope) && c.nLevels < len(c.levels); i++ {
		if i == len(scope) || scope[i] == '.' {
			if i > 0 {
				c.levels[c.nLevels] = scope[:i]
				c.nLevels++
			}
		}
	}
}

var fleetLevel = []byte("fleet")

// cell returns the rollup cell for (level, kind, metric), creating it on
// first sight. Lookups build the composite key in a reused buffer; the
// map index with a string conversion does not allocate on hit.
func (c *Collector) cell(level []byte, kind byte, name []byte) *rollup {
	b := append(c.keyBuf[:0], level...)
	b = append(b, 0, kind)
	b = append(b, name...)
	c.keyBuf = b
	r, ok := c.rollups[string(b)]
	if !ok {
		r = &rollup{kind: kind}
		switch kind {
		case kindCounter:
			r.key0 = string(level) + "/counter/" + string(name)
		case kindGauge:
			r.key0 = string(level) + "/gauge/" + string(name)
		case kindHist:
			r.key0 = string(level) + "/p50/" + string(name)
			r.key1 = string(level) + "/p99/" + string(name)
		}
		c.rollups[string(b)] = r
	}
	return r
}

// SampleRollups appends every rollup's current value to the store: one
// point per counter and gauge, p50/p99 points (milliseconds, like the
// Perfcounter Aggregator's series) per histogram. Call it on the
// reporting cadence; Run does.
func (c *Collector) SampleRollups(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.rollups {
		switch r.kind {
		case kindCounter, kindGauge:
			c.store.Append(r.key0, now, float64(r.val))
		case kindHist:
			c.store.Append(r.key0, now, float64(r.hist.Percentile(0.50))/1e6)
			c.store.Append(r.key1, now, float64(r.hist.Percentile(0.99))/1e6)
		}
	}
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
func (c *Collector) AgentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.states)
}

// StaleFraction returns the fraction of known agents whose last accepted
// report is older than staleAfter — the fleet-level watchdog signal that
// pages before any single component's staleness would.
func (c *Collector) StaleFraction(staleAfter time.Duration, now time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.states) == 0 {
		return 0
	}
	cutoff := now.Add(-staleAfter).UnixNano()
	stale := 0
	for i := range c.states {
		if c.states[i].lastNS < cutoff {
			stale++
		}
	}
	return float64(stale) / float64(len(c.states))
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

func (c *Collector) rollupVal(scope string, kind byte, name string) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.rollups[scope+"\x00"+string(kind)+name]
	if !ok {
		return 0, false
	}
	return r.val, true
}

// RollupHistogram returns a copy of the merged histogram for a scope level
// and metric name.
func (c *Collector) RollupHistogram(scope, name string) (*metrics.Histogram, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.rollups[scope+"\x00"+string(kindHist)+name]
	if !ok || r.hist == nil {
		return nil, false
	}
	return r.hist.Clone(), true
}

// HTTP surface. The handler is standalone so the same collector mounts in
// the controller's mux, the debug server, or its own listener.

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
//	GET  /         summary: agents, keys, ingest counters
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", c.serveReport)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		c.mu.Lock()
		agents := len(c.states)
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{
			"service": "pingmesh-telemetry",
			"agents":  agents,
			"series":  len(c.store.Keys()),
			"counters": map[string]int64{
				"reports":    c.cReports.Value(),
				"bytes":      c.cBytes.Value(),
				"duplicates": c.cDuplicates.Value(),
				"resyncs":    c.cResyncs.Value(),
				"rejects":    c.cRejects.Value(),
			},
		})
	})
	return mux
}

func (c *Collector) serveReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
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
