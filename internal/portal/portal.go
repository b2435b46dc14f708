// Package portal is the read side of Pingmesh: a stateless web service
// over the DSA pipeline's outputs (§3.5, §6.3). Every analysis cycle the
// pipeline's results are assembled into one immutable Snapshot, every
// response body (JSON and SVG) is rendered and content-hashed once, and
// the whole epoch is swapped in with a single atomic pointer store.
// Request handling is then a map lookup plus the shared httpcache serving
// path — cached reads and 304 revalidations allocate nothing, so any
// number of dashboards can poll the portal without touching the pipeline.
package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/debugsrv"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/httpcache"
	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
	"pingmesh/internal/trace"
)

// The /alerts feed holds the newest alertLimit alerts of the last
// alertWindow.
const (
	alertLimit  = 100
	alertWindow = 24 * time.Hour
)

// MetricSource names a metrics registry exposed on /metrics. Prefix is
// prepended to every metric name after the pingmesh_ namespace (use "" to
// expose names as-is).
type MetricSource struct {
	Prefix   string
	Registry *metrics.Registry
}

// Config wires a portal to a pipeline.
type Config struct {
	Pipeline *dsa.Pipeline
	Top      *topology.Topology
	Clock    simclock.Clock
	// Metrics lists additional registries for /metrics; the portal's own
	// registry is always included.
	Metrics []MetricSource
	// Tracer, if non-nil, records publish spans, marks snapshot freshness,
	// and enables /health and /debug/trace.
	Tracer *trace.Tracer
	// Diagnosis, if non-nil, enables GET /diagnose: the cached root-cause
	// ranking at the bare path and the per-pair evidence chain with
	// ?src=&dst=. /triage then also names the pair's vote suspect and links
	// its chain.
	Diagnosis *diagnosis.Engine
}

// state is one published epoch: the snapshot plus every pre-rendered
// response body, keyed by exact request path. Immutable after Store but
// for the chain memo, which fills as pairs are asked about.
type state struct {
	snap   *Snapshot
	bodies map[string]*httpcache.Body
	epochH []string // precomputed X-Pingmesh-Epoch header value

	// The epoch's /diagnose?src=&dst= chains: each rendered once, on first
	// call, and found again by resolved pair or by the exact query string
	// that asked.
	chainMu  sync.Mutex
	chains   map[chainKey]func() *httpcache.Body
	chainsBy map[string]func() *httpcache.Body
}

type chainKey struct{ src, dst topology.ServerID }

// An epoch memoises at most maxChains pairs under at most 4*maxChains
// query spellings of maxChainQuery bytes; a request past either is
// computed and served unstored. The memo dies with its epoch.
const (
	maxChains     = 256
	maxChainQuery = 256
)

// Portal serves DSA results over HTTP. Create with New, publish epochs
// with Refresh, serve with Handler.
type Portal struct {
	cfg Config
	reg *metrics.Registry
	exp *metrics.Exposition

	refreshMu sync.Mutex // serializes Refresh; readers never take it
	epoch     uint64     // guarded by refreshMu
	state     atomic.Pointer[state]

	// Hot-path counters resolved once so request handling stays
	// allocation-free.
	cServes      *metrics.Counter
	cNotModified *metrics.Counter
	cBytes       *metrics.Counter
	cNotFound    *metrics.Counter
	cTriage      *metrics.Counter
	cDiagnose    *metrics.Counter
	cChainHits   *metrics.Counter // chain served from the epoch's memo
	cChainMisses *metrics.Counter // chain computed and stored
	cChainOver   *metrics.Counter // memo full: computed, served, not stored
	cScrapes     *metrics.Counter
	gEpoch       *metrics.Gauge
	gBodies      *metrics.Gauge
	gBodyBytes   *metrics.Gauge
}

// New returns a portal serving empty responses until the first Refresh.
func New(cfg Config) *Portal {
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewReal()
	}
	p := &Portal{cfg: cfg, reg: metrics.NewRegistry(), exp: metrics.NewExposition()}
	if cfg.Tracer != nil {
		p.reg.GaugeFunc("portal.snapshot_age", func() int64 {
			return cfg.Tracer.Freshness().AgeMillis(trace.StagePublish)
		})
	}
	p.exp.Add("", p.reg)
	for _, src := range cfg.Metrics {
		p.exp.Add(src.Prefix, src.Registry)
	}
	p.cServes = p.reg.Counter("portal.serves")
	p.cNotModified = p.reg.Counter("portal.not_modified")
	p.cBytes = p.reg.Counter("portal.bytes_served")
	p.cNotFound = p.reg.Counter("portal.not_found")
	p.cTriage = p.reg.Counter("portal.triage_requests")
	p.cDiagnose = p.reg.Counter("portal.diagnose_requests")
	p.cChainHits = p.reg.Counter("portal.chain_cache_hits")
	p.cChainMisses = p.reg.Counter("portal.chain_cache_misses")
	p.cChainOver = p.reg.Counter("portal.chain_cache_uncached")
	p.cScrapes = p.reg.Counter("portal.metrics_scrapes")
	p.gEpoch = p.reg.Gauge("portal.epoch")
	p.gBodies = p.reg.Gauge("portal.cached_bodies")
	p.gBodyBytes = p.reg.Gauge("portal.cached_body_bytes")
	p.state.Store(&state{bodies: map[string]*httpcache.Body{}, epochH: []string{"0"}})
	return p
}

// Metrics returns the portal's own registry (request counters, epoch).
func (p *Portal) Metrics() *metrics.Registry { return p.reg }

// Snapshot returns the currently published snapshot (nil before the first
// Refresh).
func (p *Portal) Snapshot() *Snapshot { return p.state.Load().snap }

// Epoch returns the published epoch number (0 before the first Refresh).
func (p *Portal) Epoch() uint64 {
	if s := p.state.Load().snap; s != nil {
		return s.Epoch
	}
	return 0
}

// Refresh builds a new snapshot from the pipeline, renders every response
// body, and atomically publishes the epoch. Concurrent calls serialize;
// readers always see either the old epoch or the new one, never a mix.
func (p *Portal) Refresh() error {
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()

	tr := p.cfg.Tracer
	var pubStart time.Time
	if tr != nil {
		pubStart = tr.Now()
	}
	snap, err := BuildSnapshot(p.cfg.Pipeline, p.cfg.Clock.Now())
	if err != nil {
		return err
	}
	snap.Epoch = p.epoch + 1
	st, err := renderState(snap, p.cfg.Top, p.state.Load())
	if err != nil {
		return err
	}
	p.epoch = snap.Epoch
	p.state.Store(st)

	p.gEpoch.Set(int64(snap.Epoch))
	p.gBodies.Set(int64(len(st.bodies)))
	var total int64
	for _, b := range st.bodies {
		total += int64(len(b.Data()))
	}
	p.gBodyBytes.Set(total)

	if tr != nil {
		// Publish span: pipeline-level, plus one per sampled trace still
		// in flight — the DSA cycle that triggered this refresh completes
		// its traces only after the publication hook returns, so the
		// records this snapshot folds in are still registered here.
		end := tr.Now()
		ring := tr.Ring("portal")
		ring.SpanAttr(0, trace.StagePublish, "snapshot", pubStart, end, true, "epoch", int64(snap.Epoch))
		for _, tid := range tr.ActiveProbeIDs() {
			ring.SpanAttr(tid, trace.StagePublish, "snapshot", pubStart, end, true, "epoch", int64(snap.Epoch))
		}
		tr.Freshness().Mark(trace.StagePublish)
		p.reg.Histogram("portal.refresh.duration").Observe(end.Sub(pubStart))
	}
	return nil
}

const (
	ctJSON = "application/json"
	ctSVG  = "image/svg+xml"
)

// indexDoc is the "/" body: service discovery plus epoch provenance.
type indexDoc struct {
	Service     string    `json:"service"`
	Epoch       uint64    `json:"epoch"`
	PublishedAt time.Time `json:"published_at"`
	Scopes      []string  `json:"scopes"`
	Heatmaps    []string  `json:"heatmaps"`
	Alerts      int       `json:"alerts"`
	Endpoints   []string  `json:"endpoints"`
}

// renderState renders every cacheable body for a snapshot. All rendering
// cost is paid here, once per analysis cycle, never per request, and only
// for what changed since prev, the published epoch: a heatmap prev rendered
// is not rendered again, and a body whose bytes equal prev's is prev's, its
// gzip variant and content-hash ETag with it.
func renderState(snap *Snapshot, top *topology.Topology, prev *state) (*state, error) {
	st := &state{
		snap:   snap,
		bodies: make(map[string]*httpcache.Body, len(snap.SLA)+2*len(snap.Heatmaps)+3),
		epochH: []string{strconv.FormatUint(snap.Epoch, 10)},
		chains: map[chainKey]func() *httpcache.Body{}, chainsBy: map[string]func() *httpcache.Body{},
	}
	// One compressor for the whole publish, dropped with it.
	var comp httpcache.Compressor
	putRaw := func(path, ctype string, data []byte) error {
		if b := prev.bodies[path]; b != nil && bytes.Equal(b.Data(), data) {
			st.bodies[path] = b
			return nil
		}
		b, err := comp.New(ctype, data)
		if err != nil {
			return fmt.Errorf("portal: render %s: %w", path, err)
		}
		st.bodies[path] = b
		return nil
	}
	put := func(path, ctype string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("portal: render %s: %w", path, err)
		}
		return putRaw(path, ctype, append(data, '\n'))
	}

	scopes := snap.sortedScopes()
	index := make([]SLAEntry, 0, len(scopes))
	for _, sc := range scopes {
		e := snap.SLA[sc]
		index = append(index, e)
		if err := put("/sla/"+sc, ctJSON, e); err != nil {
			return nil, err
		}
	}
	if err := put("/sla", ctJSON, index); err != nil {
		return nil, err
	}
	if snap.Alerts == nil {
		snap.Alerts = []AlertEntry{}
	}
	if err := put("/alerts", ctJSON, snap.Alerts); err != nil {
		return nil, err
	}

	var heatmapNames []string
	for dc, hv := range snap.Heatmaps {
		heatmapNames = append(heatmapNames, dc)
		if prev.snap != nil && prev.snap.Heatmaps[dc] == hv {
			st.bodies["/heatmap/"+dc] = prev.bodies["/heatmap/"+dc]
			st.bodies["/heatmap/"+dc+".svg"] = prev.bodies["/heatmap/"+dc+".svg"]
			continue
		}
		if err := put("/heatmap/"+dc, ctJSON, heatmapDoc(hv)); err != nil {
			return nil, err
		}
		if err := putRaw("/heatmap/"+dc+".svg", ctSVG, hv.Heatmap.AppendSVG(nil)); err != nil {
			return nil, err
		}
	}
	slices.Sort(heatmapNames)

	endpoints := []string{
		"/sla", "/sla/{scope}", "/heatmap/{dc}", "/heatmap/{dc}.svg",
		"/alerts", "/triage?src=&dst=", "/metrics", "/healthz",
		"/health", "/debug/trace",
	}
	if snap.Diagnosis != nil {
		if err := put("/diagnose", ctJSON, diagnoseDoc(snap.Diagnosis, top)); err != nil {
			return nil, err
		}
		endpoints = append(endpoints, "/diagnose", "/diagnose?src=&dst=")
	}

	idx := indexDoc{
		Service:     "pingmesh-portal",
		Epoch:       snap.Epoch,
		PublishedAt: snap.PublishedAt,
		Scopes:      scopes,
		Heatmaps:    heatmapNames,
		Alerts:      len(snap.Alerts),
		Endpoints:   endpoints,
	}
	if err := put("/", ctJSON, idx); err != nil {
		return nil, err
	}
	return st, nil
}

// heatmapJSON is the wire form of a heatmap: the §6.3 matrix plus the
// Figure 8 classification. P99Ns uses -1 for cells without data.
type heatmapJSON struct {
	DC          string    `json:"dc"`
	Pattern     string    `json:"pattern"`
	Podset      int       `json:"podset"`
	WindowStart time.Time `json:"window_start"`
	WindowEnd   time.Time `json:"window_end"`
	Pods        []string  `json:"pods"`
	Podsets     []int     `json:"podsets"`
	P99Ns       [][]int64 `json:"p99_ns"`
	Probes      [][]int64 `json:"probes"`
}

func heatmapDoc(hv HeatmapView) heatmapJSON {
	h := hv.Heatmap
	doc := heatmapJSON{
		DC:          hv.DC,
		Pattern:     hv.Classification.Pattern.String(),
		Podset:      hv.Classification.Podset,
		WindowStart: hv.From,
		WindowEnd:   hv.To,
		Podsets:     h.Podsets,
		Pods:        make([]string, len(h.Pods)),
		P99Ns:       make([][]int64, len(h.Cells)),
		Probes:      make([][]int64, len(h.Cells)),
	}
	for i, p := range h.Pods {
		doc.Pods[i] = p.String()
	}
	for i, row := range h.Cells {
		p99s := make([]int64, len(row))
		probes := make([]int64, len(row))
		for j, c := range row {
			if c.HasData {
				p99s[j] = int64(c.P99)
				probes[j] = int64(c.Probes)
			} else {
				p99s[j] = -1
			}
		}
		doc.P99Ns[i] = p99s
		doc.Probes[i] = probes
	}
	return doc
}

// diagnoseJSON is the wire form of the published root-cause ranking: the
// 007-style vote tally over the current episode, worst suspects first.
type diagnoseJSON struct {
	Observed   uint64          `json:"observed"`
	Failures   uint64          `json:"failures"`
	Candidates []candidateJSON `json:"candidates"`
	Links      []linkJSON      `json:"links,omitempty"`
	Query      string          `json:"query"`
}

type candidateJSON struct {
	Switch   string  `json:"switch"`
	Score    float64 `json:"score"`
	Votes    float64 `json:"votes"`
	Coverage float64 `json:"coverage"`
}

type linkJSON struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	Score    float64 `json:"score"`
	Votes    float64 `json:"votes"`
	Coverage float64 `json:"coverage"`
}

func diagnoseDoc(r *diagnosis.Ranking, top *topology.Topology) diagnoseJSON {
	doc := diagnoseJSON{
		Observed:   r.Observed,
		Failures:   r.Failures,
		Candidates: make([]candidateJSON, 0, len(r.Candidates)),
		Query:      "/diagnose?src=<server|addr|podref>&dst=<server|addr|podref>",
	}
	for _, c := range r.Candidates {
		doc.Candidates = append(doc.Candidates, candidateJSON{
			Switch: top.Switch(c.Switch).Name,
			Score:  c.Score, Votes: c.Votes, Coverage: c.Coverage,
		})
	}
	for _, l := range r.Links {
		doc.Links = append(doc.Links, linkJSON{
			A: top.Switch(l.Link.A).Name, B: top.Switch(l.Link.B).Name,
			Score: l.Score, Votes: l.Votes, Coverage: l.Coverage,
		})
	}
	return doc
}

// Handler returns the portal's HTTP handler. Every route is read-only: the
// mux serves GET and HEAD and answers any other method 405 with
// "Allow: GET, HEAD".
func (p *Portal) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /triage", p.serveTriage)
	mux.HandleFunc("GET /diagnose", p.serveDiagnose)
	mux.HandleFunc("GET /metrics", p.ServeMetrics)
	mux.HandleFunc("GET /healthz", p.serveHealthz)
	mux.HandleFunc("GET /health", p.ServeHealth)
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) { debugsrv.ServeTrace(p.cfg.Tracer, w, r) })
	mux.HandleFunc("GET /", p.ServeCached)
	return mux
}

// ServeHealth answers GET /health with the pipeline freshness verdict
// (§3.5 budget), fold tier included — debugsrv's, so this port and a
// -debug-addr one say the same. Without a tracer it degenerates to the
// liveness answer of /healthz.
func (p *Portal) ServeHealth(w http.ResponseWriter, r *http.Request) {
	if p.cfg.Tracer == nil {
		p.serveHealthz(w, r)
		return
	}
	debugsrv.ServeHealth(p.cfg.Tracer, w, r)
}

// Precomputed header values for the dynamic endpoints, mirroring the
// httpcache trick: canonical MIME keys assigned whole so the hot path
// never allocates header storage.
var (
	promContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}
	jsonContentType = []string{ctJSON}
	epochHeaderKey  = "X-Pingmesh-Epoch"
)

// ServeCached serves any pre-rendered body by exact path: /, /sla,
// /sla/{scope}, /heatmap/{dc}, /heatmap/{dc}.svg, /alerts. Exported (and
// reached directly by the alloc guards) because this is the portal's
// steady-state path: one atomic load, one map lookup, zero allocations.
// It treats every request as a GET; Handler's mux lets no other method in.
func (p *Portal) ServeCached(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	b, ok := st.bodies[r.URL.Path]
	if !ok {
		p.cNotFound.Inc()
		http.NotFound(w, r)
		return
	}
	p.serveBody(w, r, st, b)
}

// serveBody is the one way a rendered body leaves the portal: the epoch it
// belongs to on 200 and 304 alike, then httpcache's validators and gzip.
func (p *Portal) serveBody(w http.ResponseWriter, r *http.Request, st *state, b *httpcache.Body) {
	w.Header()[epochHeaderKey] = st.epochH
	res := b.Serve(w, r)
	if res.Status == http.StatusNotModified {
		p.cNotModified.Inc()
		return
	}
	p.cServes.Inc()
	p.cBytes.Add(int64(res.Bytes))
}

// ServeMetrics writes the Prometheus text exposition of every configured
// registry. Exported for the alloc guard: a scrape reuses the exposition's
// buffers and allocates nothing in steady state.
func (p *Portal) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	p.cScrapes.Inc()
	w.Header()["Content-Type"] = promContentType
	p.exp.WriteTo(w)
}

// serveTriage answers GET /triage?src=&dst= with the §4.3 decision: the
// diagnosis chain's first two steps over the published epoch, diagnosis
// engine or not. The body is encoded per request (the pair space is
// quadratic; pre-rendering it would defeat the snapshot budget). With the
// engine wired it also names the epoch's vote suspect on the pair and links
// the full chain.
func (p *Portal) serveTriage(w http.ResponseWriter, r *http.Request) {
	p.cTriage.Inc()
	q := r.URL.Query()
	src, dst := q.Get("src"), q.Get("dst")
	if src == "" || dst == "" {
		writeError(w, http.StatusBadRequest, "usage: /triage?src=<server|addr|podref>&dst=<server|addr|podref>")
		return
	}
	st := p.state.Load()
	if st.snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	w.Header()[epochHeaderKey] = st.epochH
	th := st.snap.Thresholds
	res := TriageResult{Verdict: analysis.VerdictInconclusive, MaxDropRate: th.MaxDropRate, MaxP99: th.MaxP99}
	srcID, okS := resolveServer(p.cfg.Top, src)
	dstID, okD := resolveServer(p.cfg.Top, dst)
	switch {
	case !okS:
		res.Reason = fmt.Sprintf("source %q is not a known server, address, or pod ref", src)
	case !okD:
		res.Reason = fmt.Sprintf("destination %q is not a known server, address, or pod ref", dst)
	default:
		res = st.snap.triage(p.cfg.Top, srcID, dstID)
		if p.cfg.Diagnosis != nil {
			if hop, _, ok := p.cfg.Diagnosis.TopSuspect(srcID, dstID, st.snap.Evidence(p.cfg.Top)); ok {
				res.PinnedHop = hop
			}
			res.Diagnose = "/diagnose?src=" + url.QueryEscape(src) + "&dst=" + url.QueryEscape(dst)
		}
	}
	writeJSON(w, http.StatusOK, res)
}

// serveDiagnose answers GET /diagnose. Bare, it serves the epoch's
// pre-rendered root-cause ranking. With ?src=&dst= it serves the pair's
// evidence chain, an epoch artefact like the ranking it reads: computed on
// the first request of the epoch for the pair — the traceroute-pin sweep
// is the one live measurement in it — rendered into an httpcache.Body, and
// served from the epoch's memo from then on (ETag, 304, gzip).
func (p *Portal) serveDiagnose(w http.ResponseWriter, r *http.Request) {
	if p.cfg.Diagnosis == nil {
		p.cNotFound.Inc()
		writeError(w, http.StatusNotFound, "diagnosis not enabled on this portal")
		return
	}
	raw := r.URL.RawQuery
	if raw == "" {
		p.ServeCached(w, r)
		return
	}
	p.cDiagnose.Inc()
	st := p.state.Load()
	st.chainMu.Lock()
	chain := st.chainsBy[raw]
	st.chainMu.Unlock()
	if chain != nil {
		p.cChainHits.Inc()
		p.serveChain(w, r, st, chain)
		return
	}

	q := r.URL.Query()
	src, dst := q.Get("src"), q.Get("dst")
	if src == "" || dst == "" {
		writeError(w, http.StatusBadRequest, "usage: /diagnose?src=<server|addr|podref>&dst=<server|addr|podref>")
		return
	}
	if st.snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
		return
	}
	srcID, ok := resolveServer(p.cfg.Top, src)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("source %q is not a known server, address, or pod ref", src))
		return
	}
	dstID, ok := resolveServer(p.cfg.Top, dst)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("destination %q is not a known server, address, or pod ref", dst))
		return
	}

	key := chainKey{srcID, dstID}
	st.chainMu.Lock()
	chain, hit := st.chains[key]
	if !hit {
		// Run by whichever request calls it first, outside the lock; the
		// others wait for that one body (nil if it cannot be rendered).
		chain = sync.OnceValue(func() *httpcache.Body {
			data, err := json.Marshal(p.cfg.Diagnosis.Diagnose(srcID, dstID, st.snap.Evidence(p.cfg.Top)))
			if err != nil {
				return nil
			}
			b, _ := httpcache.New(ctJSON, append(data, '\n')) // nil with its error
			return b
		})
	}
	stored := hit || len(st.chains) < maxChains
	if stored {
		st.chains[key] = chain
		if len(raw) <= maxChainQuery && len(st.chainsBy) < 4*maxChains {
			st.chainsBy[raw] = chain
		}
	}
	st.chainMu.Unlock()
	switch {
	case hit:
		p.cChainHits.Inc()
	case stored:
		p.cChainMisses.Inc()
	default:
		p.cChainOver.Inc()
	}
	p.serveChain(w, r, st, chain)
}

func (p *Portal) serveChain(w http.ResponseWriter, r *http.Request, st *state, chain func() *httpcache.Body) {
	if b := chain(); b != nil {
		p.serveBody(w, r, st, b)
		return
	}
	writeError(w, http.StatusInternalServerError, "chain could not be rendered")
}

// resolveServer resolves a /triage or /diagnose parameter — a server
// address, server name, or pod ref ("d0.s1.p2", standing for the pod's
// first server) — to a concrete server, since chains walk real five-tuples.
func resolveServer(top *topology.Topology, s string) (topology.ServerID, bool) {
	if id, ok := top.ServerByAddrString(s); ok {
		return id, true
	}
	if id, ok := top.ServerByName(s); ok {
		return id, true
	}
	if ref, err := analysis.ParsePodRef(s); err == nil {
		if ref.DC >= 0 && ref.DC < len(top.DCs) &&
			ref.Podset >= 0 && ref.Podset < len(top.DCs[ref.DC].Podsets) &&
			ref.Pod >= 0 && ref.Pod < len(top.DCs[ref.DC].Podsets[ref.Podset].Pods) {
			pod := &top.DCs[ref.DC].Podsets[ref.Podset].Pods[ref.Pod]
			if len(pod.Servers) > 0 {
				return pod.Servers[0], true
			}
		}
	}
	return 0, false
}

func (p *Portal) serveHealthz(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	status := "waiting-for-first-snapshot"
	code := http.StatusOK
	if st.snap != nil {
		status = "ok"
	}
	w.Header()[epochHeaderKey] = st.epochH
	writeJSON(w, code, map[string]string{"status": status})
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
