// Package dsa assembles Pingmesh's Data Storage and Analysis pipeline
// (§3.5): agents upload latency records to Cosmos; recurring SCOPE jobs at
// three cadences aggregate them; results land in the report database from
// which visualization, reports and alerts are produced.
//
//   - 10-minute jobs (near-real-time): per-DC and per-service network SLA
//     plus threshold alerting (§4.3).
//   - 1-hour jobs: pod-pair heatmaps with pattern classification (§6.3)
//     and per-pod SLA.
//   - 1-day jobs: per-class drop rates (Table 1) and black-hole detection
//     input (§5.1), handed to a detection callback.
package dsa

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/scope"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
	"pingmesh/internal/trace"
	"pingmesh/internal/viz"
)

// Config assembles a pipeline.
type Config struct {
	Store *cosmos.Store
	Top   *topology.Topology
	// Clock defaults to wall time.
	Clock simclock.Clock
	// Thresholds judge every SLA row (analysis.Thresholds.Judge); zero value
	// means DefaultThresholds.
	Thresholds analysis.Thresholds
	// Services whose SLA is tracked individually.
	Services []*analysis.Service
	// OnDetection, if set, receives the daily black-hole detection result
	// (the hook the auto-repair loop attaches to).
	OnDetection func(diagnosis.BlackholeDetection)
	// HeatmapMinProbes is the per-cell probe floor for heatmaps. Default 5.
	HeatmapMinProbes uint64
	// Tracer, if non-nil, threads sampled end-to-end traces through the
	// analysis cycles, marks dsa-cycle freshness, and exposes the
	// dsa.last_cycle_age gauge on the job registry.
	Tracer *trace.Tracer
	// Diagnosis, when set, is the root-cause vote collector whose ranking
	// the read side publishes alongside the SLA/heatmap outputs. The
	// pipeline does not feed it — ingestion happens where records are
	// uploaded — it only exposes it to snapshot builders.
	Diagnosis *diagnosis.Collector
}

const (
	// streamPrefix selects the agent upload streams.
	streamPrefix = "pingmesh"
	// retention is how long daily record streams are kept before the daily
	// job ages them out: the paper keeps two months of Pingmesh data (§4.3).
	retention = 60 * 24 * time.Hour
)

// Report database tables the pipeline writes.
const (
	TableSLA        = "sla"        // scope-level SLA rows
	TableAlerts     = "alerts"     // fired SLA violations
	TablePatterns   = "patterns"   // heatmap pattern classifications
	TableDropRates  = "drop_rates" // per-DC per-class drop rates
	TableBlackholes = "blackholes" // black-hole candidates
)

// Cycle kinds passed to the OnCycle publication hook.
const (
	Cycle10Min = "10min"
	Cycle1Hour = "1hour"
	Cycle1Day  = "1day"
)

// HeatmapResult is the retained output of one hourly heatmap job for one
// DC: the matrix, its Figure 8 classification, and the window it covers.
// The heatmap is immutable once published.
type HeatmapResult struct {
	Heatmap        *viz.Heatmap
	Classification viz.Classification
	From, To       time.Time
}

// Pipeline is a running DSA instance.
type Pipeline struct {
	cfg   Config
	jm    *scope.JobManager
	db    *reportdb.DB
	keyer *analysis.Keyer

	jobs []cycleJob   // the job table, built once in New
	inc  *incremental // the fold tier, serving every cycle

	mu       sync.Mutex
	alerts   []analysis.Alert
	heatmaps map[string]HeatmapResult // latest per DC name
	onCycle  func(kind string, from, to time.Time)
}

// New builds a pipeline and creates its tables.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Store == nil || cfg.Top == nil {
		return nil, fmt.Errorf("dsa: store and topology required")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewReal()
	}
	if cfg.Thresholds == (analysis.Thresholds{}) {
		cfg.Thresholds = analysis.DefaultThresholds()
	}
	if cfg.HeatmapMinProbes == 0 {
		cfg.HeatmapMinProbes = 5
	}
	p := &Pipeline{
		cfg:      cfg,
		jm:       scope.NewJobManager(cfg.Clock),
		db:       reportdb.New(),
		keyer:    &analysis.Keyer{Top: cfg.Top},
		heatmaps: make(map[string]HeatmapResult),
	}
	if cfg.Tracer != nil {
		p.jm.Metrics().GaugeFunc("dsa.last_cycle_age", func() int64 {
			return cfg.Tracer.Freshness().AgeMillis(trace.StageDSACycle)
		})
	}
	p.jobs = p.jobTable()
	p.inc = newIncremental(p)
	for _, t := range []struct {
		name string
		cols []string
	}{
		{TableSLA, []string{"scope", "window_start", "window_end", "probes", "p50", "p99", "drop_rate", "failure_rate", "verdict", "reason"}},
		{TableAlerts, []string{"scope", "at", "reason", "drop_rate", "p99"}},
		{TablePatterns, []string{"dc", "window_start", "pattern", "podset"}},
		{TableDropRates, []string{"dc", "class", "window_start", "probes", "drop_rate"}},
		{TableBlackholes, []string{"tor", "score", "window_start"}},
	} {
		if err := p.db.CreateTable(t.name, t.cols...); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// DB exposes the report database for dashboards and tests.
func (p *Pipeline) DB() *reportdb.DB { return p.db }

// JobRegistry exposes the job manager's metrics registry, for scrape
// surfaces like the portal's /metrics exposition.
func (p *Pipeline) JobRegistry() *metrics.Registry { return p.jm.Metrics() }

// Thresholds returns the SLA thresholds the pipeline judges rows with.
func (p *Pipeline) Thresholds() analysis.Thresholds { return p.cfg.Thresholds }

// Diagnosis returns the wired root-cause vote collector (nil when the
// deployment runs without one).
func (p *Pipeline) Diagnosis() *diagnosis.Collector { return p.cfg.Diagnosis }

// SetOnCycle installs the snapshot publication hook: fn runs after every
// successful analysis cycle (kind is Cycle10Min/Cycle1Hour/Cycle1Day) with
// the window it processed. The read-side portal republishes its snapshot
// from here. fn runs on the job's goroutine; keep it short.
func (p *Pipeline) SetOnCycle(fn func(kind string, from, to time.Time)) {
	p.mu.Lock()
	p.onCycle = fn
	p.mu.Unlock()
}

func (p *Pipeline) fireCycle(kind string, from, to time.Time) {
	p.mu.Lock()
	fn := p.onCycle
	p.mu.Unlock()
	if fn != nil {
		fn(kind, from, to)
	}
}

// Heatmaps returns the latest hourly heatmap of every DC, keyed by DC
// name. The map is a copy; the heatmaps themselves are shared and
// immutable.
func (p *Pipeline) Heatmaps() map[string]HeatmapResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]HeatmapResult, len(p.heatmaps))
	for k, v := range p.heatmaps {
		out[k] = v
	}
	return out
}

// Alerts returns every alert fired so far, oldest first.
func (p *Pipeline) Alerts() []analysis.Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]analysis.Alert(nil), p.alerts...)
}

// foldInterval is the cadence of the background fold job: sealed extents
// are folded within a minute of landing, so a cycle finds little to drain.
const foldInterval = time.Minute

// Start schedules the background fold job and the three recurring analysis
// jobs. Each cycle fires at the end of its window on the one window grid
// (probe.WindowIndex) — the folder's, so scheduled cycles are served from
// partials whenever the pipeline was started. Call Stop to cancel.
func (p *Pipeline) Start() {
	p.jm.Schedule("fold", foldInterval, func(from, to time.Time) error {
		p.FoldNow()
		return nil
	})
	p.jm.Schedule("10min", scope.Every10Min, p.RunTenMinute)
	p.jm.Schedule("1hour", scope.Every1Hour, p.RunHourly)
	p.jm.Schedule("1day", scope.Every1Day, p.RunDaily)
}

// Stop cancels the recurring jobs.
func (p *Pipeline) Stop() { p.jm.StopAll() }

// cycleTrace accumulates the sampled traces one analysis cycle touched.
// Zero value is inert when tracing is disabled.
type cycleTrace struct {
	tr    *trace.Tracer
	start time.Time
	ids   []trace.TraceID
}

func (p *Pipeline) beginCycle() cycleTrace {
	if p.cfg.Tracer == nil {
		return cycleTrace{}
	}
	return cycleTrace{tr: p.cfg.Tracer, start: p.cfg.Tracer.Now()}
}

// observe adds the traces a fold matched to the cycle's.
func (cy *cycleTrace) observe(ids []trace.TraceID) {
	for _, tid := range ids {
		if !slices.Contains(cy.ids, tid) {
			cy.ids = append(cy.ids, tid)
		}
	}
}

// job records one job's scope-job spans, from the cycle's start to its result:
// a pipeline-level span (trace 0) with the records scanned, and one on every
// sampled trace the cycle folded with the records the job aggregated.
func (cy *cycleTrace) job(name string, res *scope.Result) {
	if cy.tr == nil {
		return
	}
	ring := cy.tr.Ring("scope")
	end := cy.tr.Now()
	ring.SpanAttr(0, trace.StageScopeJob, name, cy.start, end, true, "scanned", int64(res.Scanned))
	for _, tid := range cy.ids {
		ring.SpanAttr(tid, trace.StageScopeJob, name, cy.start, end, true, "records", int64(res.Records))
	}
}

// finishCycle closes out a successful analysis cycle: records the
// dsa-cycle span (pipeline-level plus one per sampled trace), marks
// freshness, observes the cycle duration, fires the publication hook, and
// only then completes the cycle's traces — the portal publish triggered by
// the hook must still see them in flight to stamp its publish span.
func (p *Pipeline) finishCycle(cy *cycleTrace, kind string, from, to time.Time) {
	tr := cy.tr
	if tr != nil {
		end := tr.Now()
		ring := tr.Ring("dsa")
		ring.SpanAttr(0, trace.StageDSACycle, kind, cy.start, end, true, "traces", int64(len(cy.ids)))
		for _, tid := range cy.ids {
			ring.Span(tid, trace.StageDSACycle, kind, cy.start, end, true)
		}
		tr.Freshness().Mark(trace.StageDSACycle)
		p.jm.Metrics().Histogram("dsa.cycle." + kind + ".duration").Observe(end.Sub(cy.start))
	}
	p.fireCycle(kind, from, to)
	if tr != nil {
		tr.CompleteProbes(cy.ids)
	}
}

// cycleJob is one entry of the job table: the window-free spec (the fold
// tier registers it with the folder), the cadence that publishes it, and what
// its result becomes.
type cycleJob struct {
	kind    string // Cycle10Min, Cycle1Hour or Cycle1Day
	spec    scope.FoldSpec
	publish func(res *scope.Result, from, to time.Time) error
}

// jobTable is the one definition of the recurring jobs, at all three
// cadences. Every spec is folded per extent in the same pass. The SLA specs
// keep 10-minute partials; the hourly and the daily specs both keep hour
// partials — a day is then a merge of 24, and a manual RunDaily over a few
// hours is still served from folds.
//
// Specs cost fold time per record, so the table holds as few as the reports
// allow: per-pod SLA rows are derived from the pod-pair result rather than
// folded again by source pod, and the per-class drop rates are one spec keyed
// (class, source DC) rather than one per class. The two daily specs are
// tallies-only: a drop rate is a ratio of counts, and black-hole detection
// reads Total, Success and FailureRate of a server pair and nothing else — a
// histogram per server pair per retained hour is what made hour partials
// unaffordable.
func (p *Pipeline) jobTable() []cycleJob {
	// The paper's headline SLA metric is the intra-DC TCP SYN RTT without
	// payload.
	intraDC := func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 }
	jobs := []cycleJob{
		{kind: Cycle10Min, publish: p.slaPublisher("dc/", false, true), spec: scope.FoldSpec{
			Name: "sla-dc", Where: intraDC, KeyBytes: p.keyer.AppendSrcDC,
		}},
		// The inter-DC pipeline (§6.2: a separate processing pipeline was
		// added when Pingmesh was extended across data centers).
		{kind: Cycle10Min, publish: p.slaPublisher("interdc/", false, false), spec: scope.FoldSpec{
			Name:     "sla-interdc",
			Where:    func(r *probe.Record) bool { return r.Class == probe.InterDC },
			KeyBytes: p.keyer.AppendDCPair,
		}},
	}
	for _, svc := range p.cfg.Services {
		svc := svc
		// A service groups every record under "": exactly one row, named
		// after it, even over an empty window.
		jobs = append(jobs, cycleJob{kind: Cycle10Min, publish: p.slaPublisher("service/"+svc.Name, true, true), spec: scope.FoldSpec{
			Name:     "sla-service-" + svc.Name,
			Where:    func(r *probe.Record) bool { return intraDC(r) && svc.Contains(r) },
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return dst, true },
		}})
	}
	return append(jobs,
		cycleJob{kind: Cycle1Hour, publish: p.publishPodPairs, spec: scope.FoldSpec{
			Name: "pod-pairs", Where: intraDC, KeyBytes: p.keyer.AppendSrcPodPair,
			Window: scope.Every1Hour,
		}},
		cycleJob{kind: Cycle1Day, publish: p.publishDropRates, spec: scope.FoldSpec{
			Name: "drop-rates",
			Where: func(r *probe.Record) bool {
				return r.PayloadLen == 0 && r.Class >= probe.IntraPod && r.Class <= probe.InterDC
			},
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
				return p.keyer.AppendSrcDC(append(dst, byte(r.Class)), r)
			},
			Window: scope.Every1Hour, TalliesOnly: true,
		}},
		cycleJob{kind: Cycle1Day, publish: p.publishBlackholes, spec: scope.FoldSpec{
			Name: "server-pairs", KeyBytes: p.keyer.AppendServerPairBinary,
			Window: scope.Every1Hour, TalliesOnly: true,
		}},
	)
}

// jobsOf returns the table's jobs of one cadence, in table order.
func (p *Pipeline) jobsOf(kind string) []*cycleJob {
	var jobs []*cycleJob
	for i := range p.jobs {
		if p.jobs[i].kind == kind {
			jobs = append(jobs, &p.jobs[i])
		}
	}
	return jobs
}

// RunTenMinute computes near-real-time SLA per DC, per DC pair and per
// service over the window and fires threshold alerts.
func (p *Pipeline) RunTenMinute(from, to time.Time) error { return p.runCycle(Cycle10Min, from, to) }

// RunHourly computes the pod-pair heatmap with pattern classification for
// every DC, and pod-level SLA.
func (p *Pipeline) RunHourly(from, to time.Time) error { return p.runCycle(Cycle1Hour, from, to) }

// RunDaily computes per-DC per-class drop rates (the Table 1 rows), runs
// black-hole detection over server-pair stats, and ages out expired streams.
func (p *Pipeline) RunDaily(from, to time.Time) error { return p.runCycle(Cycle1Day, from, to) }

// runCycle is the one path of every cadence: incremental.serve folds what
// the resident partials do not yet hold and merges the span's windows — once,
// for all of the cadence's jobs — and publish turns the results into rows. A
// span off the grid fails the cycle before anything is folded or published.
func (p *Pipeline) runCycle(kind string, from, to time.Time) error {
	cy := p.beginCycle()
	jobs := p.jobsOf(kind)
	results, err := p.inc.serve(&cy, kind, jobs, from, to)
	if err != nil {
		return err
	}
	return p.publish(&cy, kind, jobs, results, from, to)
}

// publish turns one result per job into report rows and closes the cycle.
func (p *Pipeline) publish(cy *cycleTrace, kind string, jobs []*cycleJob, results []*scope.Result, from, to time.Time) error {
	for i, job := range jobs {
		if err := job.publish(results[i], from, to); err != nil {
			return err
		}
	}
	if kind == Cycle1Day {
		p.ageOut(to)
	}
	p.finishCycle(cy, kind, from, to)
	return nil
}

// slaPublisher returns the publishing rule of a 10-minute job: one SLA row
// per group, named prefix + group key — or, for a whole job (which groups
// everything under ""), exactly one row named prefix — and, if alerts is
// set, one alert per row whose verdict is network, in scope order.
func (p *Pipeline) slaPublisher(prefix string, whole, alerts bool) func(*scope.Result, time.Time, time.Time) error {
	return func(res *scope.Result, from, to time.Time) error {
		groups := res.Groups
		if whole {
			groups = map[string]*analysis.LatencyStats{"": res.Get("")}
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var fired []analysis.Alert
		for _, k := range keys {
			if a := p.insertSLA(prefix+k, from, to, groups[k]); a != nil && alerts {
				fired = append(fired, *a)
			}
		}
		p.fireAlerts(fired)
		return nil
	}
}

// publishPodPairs turns the pod-pair result into every DC's heatmap and
// pattern row, and into per-pod SLA rows: a source pod's aggregate is the
// exact merge of its "<src pod>|*" groups (Keyer.AppendSrcPodPair).
func (p *Pipeline) publishPodPairs(res *scope.Result, from, to time.Time) error {
	for di := range p.cfg.Top.DCs {
		h := viz.BuildHeatmap(p.cfg.Top, di, res.Groups, p.cfg.HeatmapMinProbes)
		cls := h.Classify()
		if err := p.db.Insert(TablePatterns, reportdb.Row{
			"dc":           p.cfg.Top.DCs[di].Name,
			"window_start": from,
			"pattern":      cls.Pattern.String(),
			"podset":       cls.Podset,
		}); err != nil {
			return err
		}
		p.mu.Lock()
		p.heatmaps[p.cfg.Top.DCs[di].Name] = HeatmapResult{
			Heatmap: h, Classification: cls, From: from, To: to,
		}
		p.mu.Unlock()
	}
	pods := make(map[string]*analysis.LatencyStats)
	for pair, st := range res.Groups {
		src, _, _ := strings.Cut(pair, "|")
		if cur := pods[src]; cur != nil {
			cur.Merge(st)
		} else {
			pods[src] = st.Clone()
		}
	}
	for pod, st := range pods {
		p.insertSLA("pod/"+pod, from, to, st)
	}
	return nil
}

// publishDropRates splits the (class, source DC) groups into the Table 1
// rows, class by class.
func (p *Pipeline) publishDropRates(res *scope.Result, from, to time.Time) error {
	keys := make([]string, 0, len(res.Groups))
	for k := range res.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := res.Groups[k]
		if err := p.db.Insert(TableDropRates, reportdb.Row{
			"dc":           k[1:],
			"class":        probe.Class(k[0]).String(),
			"window_start": from,
			"probes":       int64(st.Total()),
			"drop_rate":    st.DropRate(),
		}); err != nil {
			return err
		}
	}
	return nil
}

// publishBlackholes runs black-hole detection over the server-pair tallies,
// rendering each binary group key to the text form that
// diagnosis.DetectBlackholes parses.
func (p *Pipeline) publishBlackholes(res *scope.Result, from, to time.Time) error {
	pairs := make(map[string]*analysis.LatencyStats, len(res.Groups))
	for k, st := range res.Groups {
		pairs[analysis.ServerPairKey(k)] = st
	}
	det := diagnosis.DetectBlackholes(p.cfg.Top, pairs)
	for _, cand := range det.Candidates {
		if err := p.db.Insert(TableBlackholes, reportdb.Row{
			"tor":          p.cfg.Top.Switch(cand.Switch).Name,
			"score":        cand.Score,
			"window_start": from,
		}); err != nil {
			return err
		}
	}
	if p.cfg.OnDetection != nil {
		p.cfg.OnDetection(det)
	}
	return nil
}

// ageOut deletes daily streams older than the retention window. Stream
// names end in a YYYY-MM-DD day (cosmos.DailyStream); undated streams are
// left alone.
func (p *Pipeline) ageOut(now time.Time) {
	cutoff := now.Add(-retention)
	for _, name := range p.cfg.Store.Streams(streamPrefix) {
		if len(name) < len("2006-01-02") {
			continue
		}
		day, err := time.Parse("2006-01-02", name[len(name)-len("2006-01-02"):])
		if err != nil {
			continue
		}
		// A day's stream is complete at day+24h; it expires once that
		// endpoint falls behind the cutoff.
		if day.Add(24 * time.Hour).Before(cutoff) {
			p.cfg.Store.DeleteStream(name)
			p.inc.forgetStream(name)
		}
	}
}

// insertSLA writes one SLA row with the verdict and reason of the SLA rule,
// judged here once per row, and returns the alert a network verdict stands
// for (nil otherwise).
func (p *Pipeline) insertSLA(scopeName string, from, to time.Time, st *analysis.LatencyStats) *analysis.Alert {
	drop, p99 := st.DropRate(), st.Percentile(0.99)
	verdict, reason := p.cfg.Thresholds.Judge(st.Success(), drop, p99)
	p.db.Insert(TableSLA, reportdb.Row{
		"scope":        scopeName,
		"window_start": from,
		"window_end":   to,
		"probes":       int64(st.Total()),
		"p50":          st.Percentile(0.50),
		"p99":          p99,
		"drop_rate":    drop,
		"failure_rate": st.FailureRate(),
		"verdict":      verdict,
		"reason":       reason,
	})
	if verdict != analysis.VerdictNetwork {
		return nil
	}
	return &analysis.Alert{Scope: scopeName, At: to, DropRate: drop, P99: p99, Reason: reason}
}

func (p *Pipeline) fireAlerts(alerts []analysis.Alert) {
	if len(alerts) == 0 {
		return
	}
	p.mu.Lock()
	p.alerts = append(p.alerts, alerts...)
	p.mu.Unlock()
	for _, a := range alerts {
		p.db.Insert(TableAlerts, reportdb.Row{
			"scope":     a.Scope,
			"at":        a.At,
			"reason":    a.Reason,
			"drop_rate": a.DropRate,
			"p99":       a.P99,
		})
	}
}
