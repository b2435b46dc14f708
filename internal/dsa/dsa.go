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
	"sync"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/blackhole"
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
	// StreamPrefix selects the agent upload streams. Default "pingmesh".
	StreamPrefix string
	// Clock defaults to wall time.
	Clock simclock.Clock
	// Thresholds for SLA alerting; zero value means DefaultThresholds.
	Thresholds analysis.Thresholds
	// Services whose SLA is tracked individually.
	Services []*analysis.Service
	// BlackholeConfig tunes daily black-hole detection.
	BlackholeConfig blackhole.Config
	// OnDetection, if set, receives the daily black-hole detection result
	// (the hook the auto-repair loop attaches to).
	OnDetection func(blackhole.Detection)
	// HeatmapMinProbes is the per-cell probe floor for heatmaps. Default 5.
	HeatmapMinProbes uint64
	// Retention is how long daily record streams are kept before the daily
	// job ages them out. The paper keeps two months of Pingmesh data
	// (§4.3). Default 60 days.
	Retention time.Duration
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
	cfg    Config
	engine *scope.Engine
	jm     *scope.JobManager
	db     *reportdb.DB
	keyer  *analysis.Keyer

	jobs    []cycleJob   // the 10-minute job table, built once in New
	inc     *incremental // the fold tier serving grid-aligned 10-minute cycles
	offGrid *metrics.Counter

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
	if cfg.StreamPrefix == "" {
		cfg.StreamPrefix = "pingmesh"
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
	if cfg.Retention <= 0 {
		cfg.Retention = 60 * 24 * time.Hour
	}
	p := &Pipeline{
		cfg:      cfg,
		engine:   &scope.Engine{Tracer: cfg.Tracer},
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
	p.jobs = p.tenMinuteJobs()
	p.inc = newIncremental(p, cfg.Clock.Now())
	p.offGrid = p.jm.Metrics().Counter("dsa.cycle.offgrid_rescans")
	for _, t := range []struct {
		name string
		cols []string
	}{
		{TableSLA, []string{"scope", "window_start", "window_end", "probes", "p50", "p99", "drop_rate", "failure_rate"}},
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

// JobMetrics exposes the job manager's watchdog counters.
func (p *Pipeline) JobMetrics() map[string]int64 {
	return p.jm.Metrics().Snapshot().Counters
}

// JobRegistry exposes the job manager's metrics registry, for scrape
// surfaces like the portal's /metrics exposition.
func (p *Pipeline) JobRegistry() *metrics.Registry { return p.jm.Metrics() }

// Thresholds returns the SLA alerting thresholds the pipeline runs with.
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
// jobs. Call Stop to cancel.
func (p *Pipeline) Start() {
	now := p.cfg.Clock.Now()
	// The fold-window grid must coincide with the scheduler's window grid
	// or cycles could never be served from partials.
	p.inc.rearm(now)
	p.jm.ScheduleAt("fold", foldInterval, now, func(from, to time.Time) error {
		p.FoldNow()
		return nil
	})
	p.jm.ScheduleAt("10min", scope.Every10Min, now, p.RunTenMinute)
	p.jm.ScheduleAt("1hour", scope.Every1Hour, now, p.RunHourly)
	p.jm.ScheduleAt("1day", scope.Every1Day, now, p.RunDaily)
}

// Stop cancels the recurring jobs.
func (p *Pipeline) Stop() { p.jm.StopAll() }

func (p *Pipeline) source() scope.Source {
	return scope.Source{Store: p.cfg.Store, StreamPrefix: p.cfg.StreamPrefix}
}

// cycleTrace accumulates the sampled traces one analysis cycle touched.
// Zero value is inert when tracing is disabled.
type cycleTrace struct {
	start time.Time
	ids   []trace.TraceID
}

func (p *Pipeline) beginCycle() cycleTrace {
	if p.cfg.Tracer == nil {
		return cycleTrace{}
	}
	return cycleTrace{start: p.cfg.Tracer.Now()}
}

// observe folds one engine result's traces into the cycle.
func (cy *cycleTrace) observe(res *scope.Result) {
	for _, tid := range res.Traces {
		dup := false
		for _, have := range cy.ids {
			if have == tid {
				dup = true
				break
			}
		}
		if !dup {
			cy.ids = append(cy.ids, tid)
		}
	}
}

// finishCycle closes out a successful analysis cycle: records the
// dsa-cycle span (pipeline-level plus one per sampled trace), marks
// freshness, observes the cycle duration, fires the publication hook, and
// only then completes the cycle's traces — the portal publish triggered by
// the hook must still see them in flight to stamp its publish span.
func (p *Pipeline) finishCycle(cy *cycleTrace, kind string, from, to time.Time) {
	tr := p.cfg.Tracer
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

// cycleJob is one 10-minute job family: the window-free spec both
// executors read (the fold tier registers it with the folder, the scan runs
// it as a scope.Job) and how its result becomes SLA rows.
type cycleJob struct {
	spec scope.FoldSpec
	// scope prefixes each group key to form the SLA row's scope name.
	scope string
	// whole marks a job that groups every record under "": it publishes
	// exactly one row, named scope, even over an empty window.
	whole bool
	// alerts says whether the rows are checked against the SLA thresholds.
	alerts bool
}

// tenMinuteJobs is the one definition of the 10-minute jobs.
func (p *Pipeline) tenMinuteJobs() []cycleJob {
	jobs := []cycleJob{
		{scope: "dc/", alerts: true, spec: scope.FoldSpec{
			Name: "sla-dc",
			// The paper's headline SLA metric is the intra-DC TCP SYN RTT
			// without payload.
			Where:    func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 },
			KeyBytes: p.keyer.AppendSrcDC,
		}},
		// The inter-DC pipeline (§6.2: a separate processing pipeline was
		// added when Pingmesh was extended across data centers).
		{scope: "interdc/", spec: scope.FoldSpec{
			Name:     "sla-interdc",
			Where:    func(r *probe.Record) bool { return r.Class == probe.InterDC },
			KeyBytes: p.keyer.AppendDCPair,
		}},
	}
	for _, svc := range p.cfg.Services {
		svc := svc
		jobs = append(jobs, cycleJob{scope: "service/" + svc.Name, whole: true, alerts: true, spec: scope.FoldSpec{
			Name: "sla-service-" + svc.Name,
			Where: func(r *probe.Record) bool {
				return r.Class != probe.InterDC && r.PayloadLen == 0 && svc.Contains(r)
			},
			KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return dst, true },
		}})
	}
	return jobs
}

// windowJob binds a spec to [from, to) as a scan job over the pipeline's
// streams.
func (p *Pipeline) windowJob(spec scope.FoldSpec, from, to time.Time) scope.Job {
	return scope.Job{
		Name:   spec.Name,
		Source: p.source(),
		From:   from, To: to,
		Where:    spec.Where,
		KeyBytes: spec.KeyBytes,
	}
}

// RunTenMinute computes near-real-time SLA per DC, per DC pair and per
// service over the window and fires threshold alerts. A grid-aligned window
// is served by merging folded partials plus a tail scan of the unfolded
// extents; any other window (a manual run over an arbitrary span, or one
// whose partials were already dropped) is scanned in full and counted in
// dsa.cycle.offgrid_rescans. Both executors read the same job table, and
// the scan is the reference the fold tier is tested against.
func (p *Pipeline) RunTenMinute(from, to time.Time) error {
	cy := p.beginCycle()
	results, served, err := p.inc.serve(&cy, from, to)
	if !served {
		p.offGrid.Inc()
		results, err = p.scanJobs(from, to)
	}
	if err != nil {
		return err
	}
	p.publishTenMinute(&cy, results, from, to)
	return nil
}

// scanJobs runs every 10-minute job as a full scan of [from, to).
func (p *Pipeline) scanJobs(from, to time.Time) ([]*scope.Result, error) {
	results := make([]*scope.Result, len(p.jobs))
	for i := range p.jobs {
		res, err := p.engine.Run(p.windowJob(p.jobs[i].spec, from, to))
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// publishTenMinute turns one result per job into SLA rows and alerts and
// closes the cycle.
func (p *Pipeline) publishTenMinute(cy *cycleTrace, results []*scope.Result, from, to time.Time) {
	for i, res := range results {
		job := &p.jobs[i]
		cy.observe(res)
		groups := res.Groups
		if job.whole {
			groups = map[string]*analysis.LatencyStats{"": res.Get("")}
		}
		rows := make(map[string]*analysis.LatencyStats, len(groups))
		for k, st := range groups {
			rows[job.scope+k] = st
			p.insertSLA(job.scope+k, from, to, st)
		}
		if job.alerts {
			p.fireAlerts(rows, to)
		}
	}
	p.finishCycle(cy, Cycle10Min, from, to)
}

// RunHourly computes pod-level SLA and the pod-pair heatmap with pattern
// classification for every DC.
func (p *Pipeline) RunHourly(from, to time.Time) error {
	cy := p.beginCycle()
	res, err := p.engine.Run(scope.Job{
		Name:   "pod-pairs",
		Source: p.source(),
		From:   from, To: to,
		Where:    func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 },
		KeyBytes: p.keyer.AppendPodPair,
	})
	if err != nil {
		return err
	}
	cy.observe(res)
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

	podRes, err := p.engine.Run(scope.Job{
		Name:   "sla-pod",
		Source: p.source(),
		From:   from, To: to,
		Where:    func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 },
		KeyBytes: p.keyer.AppendSrcPod,
	})
	if err != nil {
		return err
	}
	cy.observe(podRes)
	for scopeName, st := range podRes.Groups {
		p.insertSLA("pod/"+scopeName, from, to, st)
	}
	p.finishCycle(&cy, Cycle1Hour, from, to)
	return nil
}

// RunDaily computes per-DC per-class drop rates (the Table 1 rows) and
// runs black-hole detection over server-pair stats.
func (p *Pipeline) RunDaily(from, to time.Time) error {
	cy := p.beginCycle()
	for _, class := range []probe.Class{probe.IntraPod, probe.IntraDC, probe.InterDC} {
		class := class
		res, err := p.engine.Run(scope.Job{
			Name:   "drop-" + class.String(),
			Source: p.source(),
			From:   from, To: to,
			Where:    func(r *probe.Record) bool { return r.Class == class && r.PayloadLen == 0 },
			KeyBytes: p.keyer.AppendSrcDC,
		})
		if err != nil {
			return err
		}
		cy.observe(res)
		for dc, st := range res.Groups {
			if err := p.db.Insert(TableDropRates, reportdb.Row{
				"dc":           dc,
				"class":        class.String(),
				"window_start": from,
				"probes":       int64(st.Total()),
				"drop_rate":    st.DropRate(),
			}); err != nil {
				return err
			}
		}
	}

	pairRes, err := p.engine.Run(scope.Job{
		Name:   "server-pairs",
		Source: p.source(),
		From:   from, To: to,
		KeyBytes: p.keyer.AppendServerPair,
	})
	if err != nil {
		return err
	}
	cy.observe(pairRes)
	det := blackhole.Detect(p.cfg.Top, pairRes.Groups, p.cfg.BlackholeConfig)
	for _, cand := range det.Candidates {
		if err := p.db.Insert(TableBlackholes, reportdb.Row{
			"tor":          p.cfg.Top.Switch(cand.ToR).Name,
			"score":        cand.Score,
			"window_start": from,
		}); err != nil {
			return err
		}
	}
	if p.cfg.OnDetection != nil {
		p.cfg.OnDetection(det)
	}

	p.ageOut(to)
	p.finishCycle(&cy, Cycle1Day, from, to)
	return nil
}

// ageOut deletes daily streams older than the retention window. Stream
// names end in a YYYY-MM-DD day (cosmos.DailyStream); undated streams are
// left alone.
func (p *Pipeline) ageOut(now time.Time) {
	cutoff := now.Add(-p.cfg.Retention)
	for _, name := range p.cfg.Store.Streams(p.cfg.StreamPrefix) {
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

func (p *Pipeline) insertSLA(scopeName string, from, to time.Time, st *analysis.LatencyStats) {
	p.db.Insert(TableSLA, reportdb.Row{
		"scope":        scopeName,
		"window_start": from,
		"window_end":   to,
		"probes":       int64(st.Total()),
		"p50":          st.Percentile(0.50),
		"p99":          st.Percentile(0.99),
		"drop_rate":    st.DropRate(),
		"failure_rate": st.FailureRate(),
	})
}

func (p *Pipeline) fireAlerts(groups map[string]*analysis.LatencyStats, at time.Time) {
	alerts := analysis.CheckAll(groups, p.cfg.Thresholds, at)
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
