// Package controller implements the Pingmesh Controller (§3.3): it runs
// the Pingmesh Generator over the network graph to produce a pinglist file
// for every server and serves the files through a simple RESTful web API.
// The controller is stateless — every replica generates the identical file
// set from the same topology and configuration — so replicas scale out
// behind an SLB VIP and any of them can answer any agent.
//
// Serving is bandwidth-proportional to change: every file carries a strong
// ETag (content hash), agents revalidate with If-None-Match and get a 304
// when their copy is current, and bodies are precompressed once per
// generation so gzip-capable agents download the small form. Because every
// replica generates byte-identical files, the ETags agree across replicas
// and a 304 from any replica is valid for a body downloaded from any
// other.
package controller

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/httpcache"
	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// Controller generates and serves pinglists.
type Controller struct {
	cfg   core.GeneratorConfig
	clock simclock.Clock
	reg   *metrics.Registry

	state atomic.Pointer[state] // current generation; readers take one load

	// writeMu serialises the writers of state — UpdateTopology (demote the
	// outgoing generation, build against it, store) and Clear — so neither
	// can publish over the other's store or re-ring a generation the other
	// dropped. gen is the version counter, guarded by it.
	writeMu sync.Mutex
	gen     uint64

	// Hot-path counters, resolved once so serving never takes the
	// registry lock.
	cServes, cBytes, cNotModified, cMisses *metrics.Counter
	cDeltaServes, cDeltaBytes              *metrics.Counter
	cDeltaFallbacks                        *metrics.Counter
}

// state is one immutable generation of pinglist files. Each file is an
// httpcache.Body: marshaled XML with its precomputed gzip variant and
// strong ETag, shared with the portal's render cache machinery. The state
// also carries the delta machinery scoped to this generation: the ring of
// previous generations, and the patch from every ringed file to its
// current one, built with the generation and never written afterwards.
type state struct {
	version  string
	versionH []string                   // precomputed X-Pingmesh-Version value
	files    map[string]*httpcache.Body // server name -> body

	ring   []ringGen // newest first, at most DefaultDeltaRing
	deltas map[deltaKey]*deltaBody
}

// New builds a controller and runs the first generation. clock may be nil
// for wall time.
func New(top *topology.Topology, cfg core.GeneratorConfig, clock simclock.Clock) (*Controller, error) {
	if clock == nil {
		clock = simclock.NewReal()
	}
	c := &Controller{cfg: cfg, clock: clock, reg: metrics.NewRegistry()}
	c.cServes = c.reg.Counter("controller.pinglist_serves")
	c.cBytes = c.reg.Counter("controller.bytes_served")
	c.cNotModified = c.reg.Counter("controller.not_modified")
	c.cMisses = c.reg.Counter("controller.pinglist_misses")
	c.cDeltaServes = c.reg.Counter("controller.delta_serves")
	c.cDeltaBytes = c.reg.Counter("controller.delta_bytes")
	c.cDeltaFallbacks = c.reg.Counter("controller.delta_fallback_full")
	if err := c.UpdateTopology(top); err != nil {
		return nil, err
	}
	return c, nil
}

// etagFor computes the strong ETag for a marshaled pinglist. Content-hash
// based, so identical files get identical ETags on every replica.
func etagFor(data []byte) string { return httpcache.ETagFor(data) }

// UpdateTopology regenerates every pinglist from a new network graph and
// atomically publishes the new generation (§6.2: the controller updates
// pinglists whenever topology or configuration changes), together with the
// patch to it from every file in the generation ring. All of it is
// deterministic, so replicas still publish byte-identical generations.
func (c *Controller) UpdateTopology(top *topology.Topology) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	prev := c.state.Load()
	ring := demote(prev)
	c.gen++
	version := fmt.Sprintf("gen-%d", c.gen)
	start := c.clock.Now()
	gen, err := core.NewGenerator(top, c.cfg, version, start)
	if err != nil {
		return fmt.Errorf("controller: %w", err)
	}

	// Each worker claims servers one at a time and does everything for a
	// server in one step: generate its file into the worker's scratch,
	// marshal, compress and hash it, and build the patch from each ringed
	// generation. What is published is all that outlives the step.
	n := top.NumServers()
	entries := make([]*httpcache.Body, n)
	builders := make([]builder, gen.Workers(n))
	marshalStart := time.Now()
	gen.Each(n, func(w, i int) {
		if b := &builders[w]; b.err == nil {
			id := topology.ServerID(i)
			entries[i] = b.build(gen.File(id, &b.scratch), top.Server(id).Name, prev, ring)
		}
	})
	marshalWall := time.Since(marshalStart)

	next := &state{
		version: version, versionH: []string{version}, ring: ring,
		files:  make(map[string]*httpcache.Body, n),
		deltas: make(map[deltaKey]*deltaBody, len(ring)*n),
	}
	for i, e := range entries {
		next.files[top.Server(topology.ServerID(i)).Name] = e
	}
	var served, notSmaller, buildErrors int64
	var patchWall time.Duration
	for w := range builders {
		b := &builders[w]
		if b.err != nil {
			return fmt.Errorf("controller: %w", b.err)
		}
		for _, p := range b.patches {
			next.deltas[p.key] = p.body
		}
		served += int64(len(b.patches)) - b.notSmaller - b.buildErrors
		notSmaller += b.notSmaller
		buildErrors += b.buildErrors
		patchWall = max(patchWall, b.patchWall)
	}
	c.state.Store(next)
	c.reg.Counter("controller.generations").Inc()
	c.reg.Counter("controller.delta_builds").Add(served + notSmaller + buildErrors)
	c.reg.Counter("controller.delta_not_smaller").Add(notSmaller)
	c.reg.Counter("controller.delta_build_errors").Add(buildErrors)
	c.reg.Gauge("controller.delta_ring").Set(int64(len(next.ring)))
	c.reg.Gauge("controller.pinglists").Set(int64(len(next.files)))
	c.reg.Gauge("controller.patches").Set(served)
	c.reg.Gauge("controller.last_generation_ms").Set(int64(c.clock.Since(start) / time.Millisecond))
	// marshal_wall_us is the whole fan-out above, generation included;
	// patch_wall_us is the part of it the busiest worker spent building
	// patches.
	c.reg.Gauge("controller.marshal_wall_us").Set(int64(marshalWall / time.Microsecond))
	c.reg.Gauge("controller.patch_wall_us").Set(int64(patchWall / time.Microsecond))
	return nil
}

// Clear removes every pinglist while keeping the web service up. Agents
// that poll and find no pinglist fail closed and stop probing — the
// paper's emergency stop for the whole fleet (§3.4.2). The generation
// ring is dropped too: nothing may be reconstructable from a cleared
// controller, not even via deltas.
func (c *Controller) Clear() {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.state.Store(&state{version: "cleared", versionH: []string{"cleared"}, files: map[string]*httpcache.Body{}})
	c.reg.Gauge("controller.pinglists").Set(0)
	c.reg.Gauge("controller.delta_ring").Set(0)
	c.reg.Gauge("controller.patches").Set(0)
}

// Version returns the current generation identifier.
func (c *Controller) Version() string { return c.state.Load().version }

// PinglistCount reports how many pinglists the current generation holds
// (watchdog: are pinglists generated correctly?).
func (c *Controller) PinglistCount() int { return len(c.state.Load().files) }

// ETag returns the current strong ETag for a server's pinglist, or "" if
// the server is unknown. Exposed for tests and replica-agreement checks.
func (c *Controller) ETag(server string) string {
	if e, ok := c.state.Load().files[server]; ok {
		return e.ETag()
	}
	return ""
}

// Metrics returns the controller's perf-counter registry.
func (c *Controller) Metrics() *metrics.Registry { return c.reg }

// SaveToDir writes every pinglist file to a directory, one XML file per
// server (the paper stores generated files on SSD before serving them).
func (c *Controller) SaveToDir(dir string) error {
	st := c.state.Load()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	for server, e := range st.files {
		path := filepath.Join(dir, server+".xml")
		if err := os.WriteFile(path, e.Data(), 0o644); err != nil {
			return fmt.Errorf("controller: write %s: %w", path, err)
		}
	}
	return nil
}

// Handler returns the RESTful web API:
//
//	GET /pinglist/{server}  the server's pinglist XML (404 if unknown);
//	                        supports If-None-Match → 304, gzip bodies, and
//	                        A-IM: pingmesh-delta → 226 patch responses
//	GET /version            current generation id
//	GET /healthz            liveness for the SLB health prober
//
// Every route is read-only: the mux answers HEAD like GET and any other
// method 405 with "Allow: GET, HEAD". Conditional-GET, gzip negotiation
// and cached delta serving all follow the shared httpcache discipline: the
// steady-state paths (304, cached full body, cached patch) allocate
// nothing.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /pinglist/{server}", func(w http.ResponseWriter, r *http.Request) {
		f := c.fetch(r.PathValue("server"), r.Header.Get("If-None-Match"), wantsDelta(r), httpcache.AcceptsGzip(r))
		if f.kind == FetchNotFound {
			http.NotFound(w, r)
			return
		}
		w.Header()["X-Pingmesh-Version"] = f.st.versionH
		if f.kind == FetchDelta {
			f.delta.serve(w, r)
			return
		}
		f.file.Serve(w, r) // 304 or 200: the same If-None-Match test fetch made
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, c.Version())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
