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
	"runtime"
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
// patch to it from every file in the generation ring. Generation shards
// across core's worker pool; marshaling, compression and patch building
// fan out here. All of it is deterministic, so replicas still publish
// byte-identical generations.
func (c *Controller) UpdateTopology(top *topology.Topology) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	prev := c.state.Load()
	ring := demote(prev)
	c.gen++
	version := fmt.Sprintf("gen-%d", c.gen)
	start := c.clock.Now()
	lists, gstats, err := core.GenerateWithStats(top, c.cfg, version, start)
	if err != nil {
		return fmt.Errorf("controller: %w", err)
	}

	// Each worker claims servers one at a time and does everything for a
	// server while its file is in hand: marshal, compress, hash, and the
	// patch from each ringed generation. Output is keyed by server name,
	// so worker order is irrelevant.
	ids := make([]topology.ServerID, 0, len(lists))
	for id := range lists {
		ids = append(ids, id)
	}
	workers := runtime.GOMAXPROCS(0)
	if c.cfg.Parallelism > 0 {
		workers = c.cfg.Parallelism
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	entries := make([]*httpcache.Body, len(ids))
	builders := make([]builder, workers)
	marshalStart := time.Now()
	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := range builders {
		wg.Add(1)
		go func(b *builder) {
			defer wg.Done()
			for b.err == nil {
				i := int(claim.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				entries[i] = b.build(lists[ids[i]], top.Server(ids[i]).Name, prev, ring)
			}
		}(&builders[w])
	}
	wg.Wait()
	marshalWall := time.Since(marshalStart)

	next := &state{
		version: version, versionH: []string{version}, ring: ring,
		files:  make(map[string]*httpcache.Body, len(ids)),
		deltas: make(map[deltaKey]*deltaBody, len(ring)*len(ids)),
	}
	for i, id := range ids {
		next.files[top.Server(id).Name] = entries[i]
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
	c.reg.Gauge("controller.generate_wall_us").Set(int64(gstats.Wall / time.Microsecond))
	// marshal_wall_us is the whole fan-out above; patch_wall_us is the part
	// of it the busiest worker spent building patches.
	c.reg.Gauge("controller.marshal_wall_us").Set(int64(marshalWall / time.Microsecond))
	c.reg.Gauge("controller.patch_wall_us").Set(int64(patchWall / time.Microsecond))
	c.reg.Gauge("controller.generate_workers").Set(int64(gstats.Workers))
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
		server := r.PathValue("server")
		st := c.state.Load()
		e, ok := st.files[server]
		if !ok {
			c.cMisses.Inc()
			http.NotFound(w, r)
			return
		}
		// Stale validator from a delta-capable agent: try to serve a patch
		// from the generation ring before falling back to the full body.
		// (A matching validator falls through to Serve's 304 path.)
		if inm := r.Header.Get("If-None-Match"); inm != "" &&
			!httpcache.ETagMatches(inm, e.ETag()) && wantsDelta(r) {
			if db := st.deltaFor(server, inm); db != nil {
				w.Header()["X-Pingmesh-Version"] = st.versionH
				n := db.serve(w, r)
				c.cDeltaServes.Inc()
				c.cDeltaBytes.Add(int64(n))
				return
			}
			c.cDeltaFallbacks.Inc()
		}
		w.Header()["X-Pingmesh-Version"] = st.versionH
		res := e.Serve(w, r)
		if res.Status == http.StatusNotModified {
			c.cNotModified.Inc()
			return
		}
		c.cServes.Inc()
		c.cBytes.Add(int64(res.Bytes))
	})
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, c.Version())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
