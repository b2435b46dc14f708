package main

// wiring.go assembles the systems under test from the repo's public
// constructors. It is the only file that names an opt-in knob: steady_raw
// names none (every Config is zero-valued apart from its required
// dependencies, the configuration every binary ships), and the other
// workloads switch the fold tier on through setIfPresent, so that once a
// knob is deleted upstream the only path left is the one being asked for
// and the benchmark needs no edit.

import (
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/analysis"
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
	"pingmesh/internal/simclock"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/topology"
)

// simStart is midnight UTC so ten-minute windows sit on both the pipeline's
// anchored grid and the agents' epoch-aligned sketch grid.
var simStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

const (
	window = 10 * time.Minute
	// rawThreshold mirrors the agent's default RawThreshold: a successful
	// probe at or above it keeps its identity instead of joining a sketch.
	rawThreshold = time.Second
	// flushesPerWindow is the raw path's upload cadence: a one-minute
	// UploadInterval inside a ten-minute window.
	flushesPerWindow = 10
	// serviceName is the one service whose SLA is tracked individually: the
	// first podset of the first DC.
	serviceName = "search"
)

// numWorkers is the size of every pool the benchmark starts: load-generator
// goroutines, analysis shards and HTTP connections.
func numWorkers() int {
	return min(runtime.GOMAXPROCS(0), 4)
}

// setIfPresent sets the int field named field of the struct cfg points to,
// and reports whether the struct still has it.
func setIfPresent(cfg any, field string, v int) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName(field)
	if !f.IsValid() || !f.CanSet() || f.Kind() != reflect.Int {
		return false
	}
	f.SetInt(int64(v))
	return true
}

// dpShape sizes one data-plane workload.
type dpShape struct {
	spec     topology.Spec
	windows  int
	sketch   bool // agent sketches + PMB1 batches + fold tier
	incident bool // fault timeline + diagnosis collector + triage reads
	reads    int  // GETs per connection per window
}

func twoDCs(podsets, pods, servers int) topology.Spec {
	dc := func(name string) topology.DCSpec {
		return topology.DCSpec{Name: name, Podsets: podsets, PodsPerPodset: pods,
			ServersPerPod: servers, LeavesPerPodset: 2, Spines: 4}
	}
	return topology.Spec{DCs: []topology.DCSpec{dc("DC1"), dc("DC2")}}
}

// dataPlaneShapes returns the three data-plane workloads at a scale.
func dataPlaneShapes(scale string) map[string]dpShape {
	if scale == "smoke" {
		return map[string]dpShape{
			"steady_raw":    {spec: twoDCs(2, 2, 3), windows: 6, reads: 20},
			"steady_sketch": {spec: twoDCs(2, 3, 3), windows: 6, sketch: true, reads: 20},
			"incident":      {spec: twoDCs(3, 4, 4), windows: 18, sketch: true, incident: true, reads: 20},
		}
	}
	return map[string]dpShape{
		"steady_raw":    {spec: twoDCs(2, 5, 8), windows: 6, reads: 200},
		"steady_sketch": {spec: twoDCs(4, 10, 6), windows: 6, sketch: true, reads: 200},
		"incident":      {spec: twoDCs(3, 8, 4), windows: 18, sketch: true, incident: true, reads: 200},
	}
}

// dataPlane is one assembled pipeline: fabric, pinglists, store, analysis,
// portal and its loopback listener.
type dataPlane struct {
	shape   dpShape
	workers int
	top     *topology.Topology
	net     *netsim.Network
	clock   *simclock.Sim
	runner  *fleet.Runner
	store   *cosmos.Store
	pipe    *dsa.Pipeline
	portal  *portal.Portal
	diag    *diagnosis.Collector
	members []topology.ServerID        // the tracked service's servers
	accs    []*agent.SketchAccumulator // per server, sketch path only
	arena   [][]probe.Record           // per server, one window of records
	web     *loopback
	folding bool // the fold tier knob existed and was set
}

func buildDataPlane(shape dpShape, seed uint64) (*dataPlane, error) {
	workers := numWorkers()
	top, err := topology.Build(shape.spec)
	if err != nil {
		return nil, err
	}
	defaults := netsim.DefaultProfiles()
	var profiles []netsim.Profile
	for i := range top.DCs {
		profiles = append(profiles, defaults[i%len(defaults)])
	}
	fabric, err := netsim.New(top, netsim.Config{Profiles: profiles})
	if err != nil {
		return nil, err
	}
	clock := simclock.NewSim(simStart)
	gen := core.DefaultGeneratorConfig()
	ctrl, err := controller.New(top, gen, clock)
	if err != nil {
		return nil, err
	}
	lists, err := core.Generate(top, gen, ctrl.Version(), simStart)
	if err != nil {
		return nil, err
	}
	store, err := cosmos.NewStore(3, cosmos.Config{})
	if err != nil {
		return nil, err
	}
	dp := &dataPlane{
		shape: shape, workers: workers, top: top, net: fabric, clock: clock, store: store,
		runner:  &fleet.Runner{Net: fabric, Lists: lists, Workers: workers},
		members: top.DCs[0].Podsets[0].Servers(),
	}
	cfg := dsa.Config{Store: store, Top: top, Clock: clock,
		Services: []*analysis.Service{analysis.ServiceFromServers(serviceName, top, dp.members)}}
	pcfg := portal.Config{Top: top, Clock: clock}
	if shape.sketch {
		dp.folding = setIfPresent(&cfg, "Shards", workers)
		dp.accs = make([]*agent.SketchAccumulator, top.NumServers())
		for i := range dp.accs {
			dp.accs[i] = agent.NewSketchAccumulator(top.Server(topology.ServerID(i)).Addr, window)
		}
	}
	if shape.incident {
		dp.diag = diagnosis.NewCollector(diagnosis.CollectorConfig{Top: top, Paths: fabric})
		cfg.Diagnosis = dp.diag
		pcfg.Diagnosis = &diagnosis.Engine{Top: top, Votes: dp.diag, Paths: fabric, Tracer: fabric,
			Clock: clock, Seed: seed ^ 0xd1a9}
	}
	if dp.pipe, err = dsa.New(cfg); err != nil {
		return nil, err
	}
	pcfg.Pipeline = dp.pipe
	pcfg.Metrics = []portal.MetricSource{
		{Registry: ctrl.Metrics()},
		{Registry: dp.pipe.JobRegistry()},
	}
	dp.portal = portal.New(pcfg)
	dp.arena = newArena(top, lists)
	if dp.web, err = listenLoopback(dp.portal.Handler()); err != nil {
		return nil, err
	}
	return dp, nil
}

// newArena preallocates each server's record slice to the most probes its
// pinglist can schedule in one window.
func newArena(top *topology.Topology, lists map[topology.ServerID]*pinglist.File) [][]probe.Record {
	arena := make([][]probe.Record, top.NumServers())
	for id, list := range lists {
		n := 0
		for i := range list.Peers {
			n += int(window/list.Peers[i].Interval()) + 1
		}
		arena[id] = make([]probe.Record, 0, n)
	}
	return arena
}

// shipsRaw is the agent's anomaly policy: failures, SYN-retransmit
// signatures and slow probes keep per-record identity; the rest is sketched.
func shipsRaw(r *probe.Record) bool {
	return r.Err != "" || r.RTT >= rawThreshold || analysis.DropSignature(r.RTT) != 0
}

// loopback is an HTTP server on 127.0.0.1 that close() stops and waits for.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listenLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// keepAliveClient returns a client that owns exactly one connection.
func keepAliveClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// churnShape sizes the control-plane workload.
type churnShape struct {
	base, updated topology.Spec
	agents        int
	sampled       int // agents that use the real controller.Client over loopback
}

func churnShapeFor(scale string) churnShape {
	grow := func(podsets, pods, servers int) (topology.Spec, topology.Spec) {
		return twoDCs(podsets, pods, servers), twoDCs(podsets+1, pods, servers)
	}
	if scale == "smoke" {
		base, updated := grow(2, 3, 4)
		return churnShape{base: base, updated: updated, agents: 400, sampled: 8}
	}
	base, updated := grow(5, 10, 6)
	return churnShape{base: base, updated: updated, agents: 12000, sampled: 64}
}

// controlPlane is one assembled controller + telemetry collector.
type controlPlane struct {
	workers int
	clock   *simclock.Sim
	ctrl    *controller.Controller
	col     *telemetry.Collector
	updated *topology.Topology
	names   []string // base topology server names, the agents' identities
	scopes  []string // per server: telemetry scope path
	web     *loopback
	newMS   float64 // controller.New wall
}

func buildControlPlane(shape churnShape) (*controlPlane, error) {
	base, err := topology.Build(shape.base)
	if err != nil {
		return nil, err
	}
	updated, err := topology.Build(shape.updated)
	if err != nil {
		return nil, err
	}
	clock := simclock.NewSim(simStart)
	cp := &controlPlane{workers: numWorkers(), clock: clock, updated: updated}
	cp.col = telemetry.NewCollector(telemetry.CollectorConfig{Clock: clock})
	t0 := time.Now()
	cp.ctrl, err = controller.New(base, core.DefaultGeneratorConfig(), clock)
	if err != nil {
		return nil, err
	}
	cp.newMS = ms(time.Since(t0))
	for _, s := range base.Servers() {
		cp.names = append(cp.names, s.Name)
		cp.scopes = append(cp.scopes, fmt.Sprintf("d%d.s%d.p%d", s.DC, s.Podset, s.Pod))
	}
	if cp.web, err = listenLoopback(cp.ctrl.Handler()); err != nil {
		return nil, err
	}
	return cp, nil
}
