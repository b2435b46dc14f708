// Package pingmesh is a from-scratch Go implementation of Pingmesh (Guo et
// al., SIGCOMM 2015): a large-scale data center network latency measurement
// and analysis system. Every server runs an agent that TCP/HTTP-pings a
// controller-computed set of peers (three levels of complete graphs);
// results feed a storage and analysis pipeline that tracks network SLAs,
// answers "is it the network?", and detects switch packet black-holes and
// silent random packet drops.
//
// The package exposes two ways to run the system:
//
//   - SimTestbed: a whole simulated deployment — Clos fabric simulator,
//     controller, probing fleet, Cosmos/SCOPE-style pipeline — for
//     experiments, fault-injection studies, and reproducing the paper's
//     evaluation.
//   - Real-network components: NewController/NewAgent wire the same
//     controller and agent implementations to real sockets for running on
//     an actual network (see examples/quickstart).
//
// Subsystems live in internal/ packages; this package is the stable entry
// point.
package pingmesh

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/analysis"
	"pingmesh/internal/autopilot"
	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netsim"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/portal"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/scope"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
	"pingmesh/internal/trace"
	"pingmesh/internal/viz"
)

// Core vocabulary, re-exported so facade users need no internal imports.
type (
	// Topology is the immutable multi-DC fleet model.
	Topology = topology.Topology
	// TopologySpec describes a fleet to generate.
	TopologySpec = topology.Spec
	// DCSpec describes one data center to generate.
	DCSpec = topology.DCSpec
	// ServerID identifies a server in the fleet.
	ServerID = topology.ServerID
	// SwitchID identifies a switch in the fleet.
	SwitchID = topology.SwitchID
	// Record is one probe outcome.
	Record = probe.Record
	// LatencyStats aggregates probe records.
	LatencyStats = analysis.LatencyStats
	// Alert is one SLA violation.
	Alert = analysis.Alert
	// Service is a named set of servers whose SLA is tracked individually.
	Service = analysis.Service
	// Pattern classifies a heatmap (normal, podset-down, ...).
	Pattern = viz.Pattern
	// NetworkProfile is the behavioural model of one DC's fabric.
	NetworkProfile = netsim.Profile
	// GeneratorConfig parameterizes pinglist generation.
	GeneratorConfig = core.GeneratorConfig
	// Pinglist is one server's probing assignment.
	Pinglist = pinglist.File
	// Detection is a black-hole detection result.
	Detection = diagnosis.BlackholeDetection
	// ReportDB is the report database dashboards read.
	ReportDB = reportdb.DB
	// Portal is the read-side web service over the DSA outputs.
	Portal = portal.Portal
	// TriageResult is the §4.3 "is it a network issue?" decision.
	TriageResult = portal.TriageResult
	// DiagnosisChain is the ordered evidence chain /diagnose returns.
	DiagnosisChain = diagnosis.Chain
)

// Switch tiers, bottom up.
const (
	TierToR   = topology.TierToR
	TierLeaf  = topology.TierLeaf
	TierSpine = topology.TierSpine
)

// SimOptions configures a simulated testbed.
type SimOptions struct {
	// Profiles holds one network profile per DC; defaults to the paper's
	// five DC profiles cycled across the spec's DCs.
	Profiles []netsim.Profile
	// Services to track SLAs for.
	Services []*analysis.Service
	// Seed makes runs reproducible.
	Seed uint64
	// Start is the simulated start time; defaults to 2026-07-01 UTC.
	Start time.Time
	// OnDetection receives daily black-hole detection results.
	OnDetection func(diagnosis.BlackholeDetection)
	// HeatmapMinProbes overrides the pipeline's per-cell probe floor for
	// heatmaps (small testbeds need a lower floor than production).
	HeatmapMinProbes uint64
}

// SimTestbed is a whole simulated Pingmesh deployment: fabric, controller,
// probing fleet, storage and analysis pipeline, with a virtual clock.
type SimTestbed struct {
	Top        *topology.Topology
	Net        *netsim.Network
	Clock      *simclock.Sim
	Store      *cosmos.Store
	Controller *controller.Controller
	Pipeline   *dsa.Pipeline
	// Tracer is the testbed's tracing/self-monitoring layer, on the
	// testbed's virtual clock and threaded through the pipeline and portal.
	Tracer *trace.Tracer
	// Diag accumulates per-hop votes from every probe the fleet runs; the
	// portal publishes its ranking on /diagnose and the diagnosis engine
	// reads it for the hop-votes assertion.
	Diag *diagnosis.Collector

	seed   uint64
	lists  map[topology.ServerID]*pinglist.File
	repair *autopilot.RepairService
}

// NewSimTestbed builds a simulated deployment from a topology spec.
func NewSimTestbed(spec TopologySpec, opts SimOptions) (*SimTestbed, error) {
	top, err := topology.Build(spec)
	if err != nil {
		return nil, err
	}
	profiles := opts.Profiles
	if len(profiles) == 0 {
		defaults := netsim.DefaultProfiles()
		for i := range top.DCs {
			profiles = append(profiles, defaults[i%len(defaults)])
		}
	}
	net, err := netsim.New(top, netsim.Config{Profiles: profiles})
	if err != nil {
		return nil, err
	}
	start := opts.Start
	if start.IsZero() {
		start = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	}
	clock := simclock.NewSim(start)

	gen := core.DefaultGeneratorConfig()
	ctrl, err := controller.New(top, gen, clock)
	if err != nil {
		return nil, err
	}
	lists, err := core.Generate(top, gen, ctrl.Version(), start)
	if err != nil {
		return nil, err
	}
	store, err := cosmos.NewStore(3, cosmos.Config{})
	if err != nil {
		return nil, err
	}
	tracer := trace.New(clock)
	diag := diagnosis.NewCollector(diagnosis.CollectorConfig{Top: top, Paths: net})
	pipe, err := dsa.New(dsa.Config{
		Store:            store,
		Top:              top,
		Clock:            clock,
		Services:         opts.Services,
		OnDetection:      opts.OnDetection,
		HeatmapMinProbes: opts.HeatmapMinProbes,
		Tracer:           tracer,
		Diagnosis:        diag,
	})
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0xbead
	}
	return &SimTestbed{
		Top: top, Net: net, Clock: clock, Store: store,
		Controller: ctrl, Pipeline: pipe, Tracer: tracer, Diag: diag,
		seed: seed, lists: lists,
	}, nil
}

// Pinglists returns the controller-generated pinglist of every server.
func (tb *SimTestbed) Pinglists() map[ServerID]*Pinglist { return tb.lists }

// RunWindow executes every scheduled probe of the fleet for the next d of
// simulated time, uploads them to the store as agents do — PMB1 batches,
// healthy probes sketched per peer per window, anomalies raw — and advances
// the clock. Call Analyze* (or Pipeline methods) afterwards to process the
// window.
//
// Each server uploads by the agent's upload step, AppendUpload, with one
// accumulator for the call: it cuts at each grid window's first batch and
// after the run, as an agent's flushes do, so a (peer, window) is one sketch.
//
// Fault state is sampled per probe but the window executes as one batch:
// inject faults between windows (or use RunTimeline) rather than
// concurrently with a running window.
func (tb *SimTestbed) RunWindow(d time.Duration) error {
	from := tb.Clock.Now()
	to := from.Add(d)
	runner := &fleet.Runner{Net: tb.Net, Lists: tb.lists, Seed: tb.seed ^ uint64(from.UnixNano())}
	stream := cosmos.DailyStream("pingmesh")
	// Run calls a server's sink from one goroutine at a time.
	accs := make([]*agent.SketchAccumulator, tb.Top.NumServers())
	upload := func(src topology.ServerID, raw []probe.Record, cut int64, at time.Time) {
		if data, _, _ := accs[src].AppendUpload(nil, raw, cut); len(data) > 0 {
			if err := tb.Store.Append(stream(at), data); err != nil {
				panic(fmt.Sprintf("pingmesh: store append: %v", err)) // in-memory store: only programming errors
			}
		}
	}
	err := runner.Run(from, to, func(src topology.ServerID, recs []probe.Record) {
		if accs[src] == nil {
			accs[src] = agent.NewSketchAccumulator(recs[0].Src, probe.Window)
		}
		var raw []probe.Record
		for i := range recs {
			if r := &recs[i]; agent.ShipsRaw(r) {
				raw = append(raw, *r)
			} else {
				accs[src].Observe(r)
			}
		}
		upload(src, raw, accs[src].WindowIndex(recs[0].Start), recs[0].Start)
		tb.Diag.ObserveBatch(recs)
	})
	if err != nil {
		return err
	}
	// Callers analyze the window as soon as RunWindow returns.
	for src, acc := range accs {
		if acc != nil {
			upload(topology.ServerID(src), nil, math.MaxInt64, to)
		}
	}
	tb.Clock.AdvanceTo(to)
	// The fleet's batch append stands in for the agents' upload path: the
	// last batch lands at the window's end, so the mark goes after the
	// clock advance — otherwise a window longer than the 5-minute upload
	// budget would read as stale the moment it finishes.
	tb.Tracer.Freshness().Mark(trace.StageUpload)
	return nil
}

// TimelineStep is one phase of a scripted incident: Mutate (may be nil)
// adjusts the fabric, then the fleet probes for Duration.
type TimelineStep struct {
	// Name labels the phase in analyses.
	Name string
	// Mutate runs before the phase's probing (inject or clear faults).
	Mutate func(tb *SimTestbed)
	// Duration is how long the fleet probes in this phase.
	Duration time.Duration
}

// TimelinePhase is the analyzed outcome of one step.
type TimelinePhase struct {
	Name     string
	From, To time.Time
	// Stats aggregates the phase's intra-DC SYN probes fleet-wide.
	Stats *LatencyStats
}

// RunTimeline executes a scripted incident: for each step it applies the
// mutation, probes for the step's duration, and aggregates the phase's
// stats — the idiom behind Figure 7-style before/during/after studies.
func (tb *SimTestbed) RunTimeline(steps []TimelineStep) ([]TimelinePhase, error) {
	var out []TimelinePhase
	for i, step := range steps {
		if step.Mutate != nil {
			step.Mutate(tb)
		}
		if step.Duration <= 0 {
			return nil, fmt.Errorf("pingmesh: timeline step %d (%q) has no duration", i, step.Name)
		}
		from := tb.Clock.Now()
		if err := tb.RunWindow(step.Duration); err != nil {
			return nil, err
		}
		to := tb.Clock.Now()
		res, err := scope.Run(scope.Job{
			Name:   "timeline-" + step.Name,
			Source: scope.Source{Store: tb.Store, StreamPrefix: "pingmesh"},
			From:   from, To: to,
			Where: func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 },
		})
		if err != nil {
			return nil, err
		}
		out = append(out, TimelinePhase{Name: step.Name, From: from, To: to, Stats: res.Get("")})
	}
	return out, nil
}

// AnalyzeWindow runs the 10-minute, hourly and daily analyses over
// [from, to), which publish their rows to DB. The span must be whole hours,
// none starting more than 24 hours before the clock's current hour, and none
// of them analysed before; otherwise a cycle finds the span off the DSA's
// window grid and AnalyzeWindow returns its error.
func (tb *SimTestbed) AnalyzeWindow(from, to time.Time) error {
	if err := tb.Pipeline.RunTenMinute(from, to); err != nil {
		return err
	}
	if err := tb.Pipeline.RunHourly(from, to); err != nil {
		return err
	}
	return tb.Pipeline.RunDaily(from, to)
}

// DB returns the report database with SLA rows, alerts, patterns, drop
// rates and black-hole candidates.
func (tb *SimTestbed) DB() *ReportDB { return tb.Pipeline.DB() }

// NewPortal wires a read-side portal to the testbed's pipeline: every
// analysis cycle (10-minute, hourly, daily) republishes the portal's
// snapshot, and /metrics exposes the controller's and the scope jobs'
// registries alongside the portal's own.
func (tb *SimTestbed) NewPortal() *Portal {
	engine := tb.NewDiagnosisEngine()
	p := portal.New(portal.Config{
		Pipeline: tb.Pipeline,
		Top:      tb.Top,
		Clock:    tb.Clock,
		Metrics: []portal.MetricSource{
			{Prefix: "", Registry: tb.Controller.Metrics()},
			{Prefix: "", Registry: tb.Pipeline.JobRegistry()},
			{Prefix: "", Registry: tb.Diag.Metrics()},
			{Prefix: "", Registry: engine.Metrics()},
		},
		Tracer:    tb.Tracer,
		Diagnosis: engine,
	})
	tb.Pipeline.SetOnCycle(func(kind string, from, to time.Time) {
		// Publication is best-effort: a refresh failure leaves the previous
		// epoch serving, which is exactly the stale-but-consistent behavior
		// the read side wants.
		p.Refresh()
	})
	return p
}

// Alerts returns the SLA violations fired so far.
func (tb *SimTestbed) Alerts() []Alert { return tb.Pipeline.Alerts() }

// NewRepairService returns a repair service whose executor acts on the
// simulated network (reload / isolate / replace by device name), with the
// paper's budget of 20 actions per day (autopilot.RepairsPerDay).
func (tb *SimTestbed) NewRepairService() *autopilot.RepairService {
	rs := autopilot.NewRepairService(tb.Clock, func(a autopilot.RepairAction) error {
		for _, sw := range tb.Top.Switches() {
			if sw.Name != a.Device {
				continue
			}
			switch a.Kind {
			case autopilot.RepairReload:
				tb.Net.ReloadSwitch(sw.ID)
			case autopilot.RepairIsolate:
				tb.Net.IsolateSwitch(sw.ID)
			case autopilot.RepairRMA:
				tb.Net.ReplaceSwitch(sw.ID)
			default:
				return fmt.Errorf("pingmesh: unknown repair kind %q", a.Kind)
			}
			return nil
		}
		return fmt.Errorf("pingmesh: unknown device %q", a.Device)
	})
	// The diagnosis engine's repair-budget assertion reads the most
	// recently created service, whichever order the caller wires things in.
	tb.repair = rs
	return rs
}

// NewDiagnosisEngine wires a diagnosis chain engine to the testbed: votes
// from the fleet's collector, exact paths and TTL sweeps from the fabric
// simulator, and (when NewRepairService has been called) the repair budget.
func (tb *SimTestbed) NewDiagnosisEngine() *diagnosis.Engine {
	return &diagnosis.Engine{
		Top:    tb.Top,
		Votes:  tb.Diag,
		Paths:  tb.Net,
		Tracer: tb.Net,
		Clock:  tb.Clock,
		Seed:   tb.seed ^ 0xd1a9,
		Budget: func() (remaining, perDay int) {
			if tb.repair == nil {
				return 0, 0
			}
			return tb.repair.BudgetRemaining(), autopilot.RepairsPerDay
		},
	}
}

// SilentDropSuspect is one switch accused of silent random packet drops.
type SilentDropSuspect = diagnosis.Pin

// LocalizeSilentDrops runs the §5.2 workflow over the stored records of
// [from, to): compute per-server-pair drop estimates, pick the most
// affected pairs, and TCP-traceroute the five-tuples of their stored
// drop-signature probes against the fabric to pinpoint the lossy switch
// (diagnosis.PinLoss at 600 probes per hop). Returns the confirmed
// suspects, most loss mass first (none when the fabric is clean).
func (tb *SimTestbed) LocalizeSilentDrops(from, to time.Time) ([]SilentDropSuspect, error) {
	keyer := &analysis.Keyer{Top: tb.Top}
	res, err := scope.Run(scope.Job{
		Name:   "silentdrop-pairs",
		Source: scope.Source{Store: tb.Store, StreamPrefix: "pingmesh"},
		From:   from, To: to,
		KeyBytes: keyer.AppendServerPair,
	})
	if err != nil {
		return nil, err
	}
	rates := make(map[string]float64, len(res.Groups))
	for k, st := range res.Groups {
		if st.Success() >= 20 {
			rates[k] = st.DropRate()
		}
	}
	// Trace the five-tuples that dropped: the pairs' stored raw records.
	var recs []probe.Record
	var sc probe.Scanner
	for _, stream := range tb.Store.Streams("pingmesh") {
		data, err := tb.Store.Read(stream)
		if err != nil {
			return nil, err
		}
		sc.Reset(data)
		for kind := sc.ScanEntry(); kind != probe.EntryEOF; kind = sc.ScanEntry() {
			if r := sc.Record(); kind == probe.EntryRecord && sc.RowErr() == nil && !r.Start.Before(from) && r.Start.Before(to) {
				recs = append(recs, *r)
			}
		}
	}
	tuples := diagnosis.AffectedPairsFromStats(tb.Top, tb.Net, rates, recs, 1e-3, 8)
	return diagnosis.PinLoss(tb.Net, tuples, 600, rand.New(rand.NewPCG(tb.seed^0x51d, 13))), nil
}

// StandardWatchdogs returns a watchdog service wired with the checks §3.5
// prescribes for an always-on deployment: are pinglists generated, is
// Pingmesh data being reported and stored, does the DSA produce SLA rows
// in time. Failures escalate through the returned Device Manager. Call
// Start on the service (or RunOnce from tests) and inspect dm.Devices().
func (tb *SimTestbed) StandardWatchdogs(interval time.Duration) (*autopilot.WatchdogService, *autopilot.DeviceManager) {
	dm := autopilot.NewDeviceManager()
	ws := autopilot.NewWatchdogService(tb.Clock, interval, dm)
	ws.Register(autopilot.Watchdog{
		Name:   "pinglists-generated",
		Device: "pingmesh-controller",
		Check: func() error {
			if tb.Controller.PinglistCount() == 0 {
				return fmt.Errorf("controller has no pinglists")
			}
			return nil
		},
	})
	ws.Register(autopilot.Watchdog{
		Name:   "data-reported",
		Device: "pingmesh-agents",
		Check: func() error {
			if len(tb.Store.Streams("pingmesh/")) == 0 {
				return fmt.Errorf("no latency data uploaded")
			}
			return nil
		},
	})
	ws.Register(autopilot.Watchdog{
		Name:   "sla-produced",
		Device: "pingmesh-dsa",
		Check: func() error {
			if tb.Pipeline.DB().Count(dsa.TableSLA) == 0 {
				return fmt.Errorf("DSA has produced no SLA rows")
			}
			return nil
		},
	})
	// The "who watches Pingmesh" check: the pipeline's own freshness verdict
	// against the §3.5 budget — the stage marks and the fold tier's lag (a
	// folder sitting on a backlog without folding is what makes the next
	// cycle blow the 20-minute budget, so it pages before the cycle does).
	ws.Register(autopilot.NewStalenessWatchdog(tb.Tracer.Freshness()))
	return ws, dm
}
