package controller

import (
	"bytes"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/httpcache"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// oracleGen is one published generation as the test saw it: every
// server's ETag and full body.
type oracleGen map[string]*oracleFile

type oracleFile struct {
	etag string
	body []byte
	wire int // gzip-preferred size of the full body
}

func snapshotGen(t *testing.T, c *Controller, top *topology.Topology, comp *httpcache.Compressor) oracleGen {
	t.Helper()
	h := c.Handler()
	g := oracleGen{}
	for _, s := range top.Servers() {
		w := serveOnce(h, "/pinglist/"+s.Name, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", s.Name, w.Code)
		}
		b, err := comp.New("application/xml", w.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		of := &oracleFile{etag: w.Header().Get("ETag"), body: w.Body.Bytes(), wire: len(b.Data())}
		if gz := b.Gzip(); gz != nil {
			of.wire = len(gz)
		}
		g[s.Name] = of
	}
	return g
}

// TestEagerPatchesEqualSerialOracle holds the deltas UpdateTopology
// builds — on every core, each worker reusing one compressor — to the
// serial construction: one pinglist.DeltaWriter over each base and current
// body in turn. Across five generations (grow, shrink, a regeneration
// that changes only the version header, grow again so the first generation
// leaves the ring) every (server, ringed base) pair must be served, by
// Handler and by ServeFetch alike, exactly the oracle's bytes — or the
// full body where the oracle's delta would not be smaller — the delta must
// rebuild the current body from its base and hash to its ETag, and
// controllers with 1, 2 and 4 workers must serve the same bytes, as
// replicas on different machines do.
func TestEagerPatchesEqualSerialOracle(t *testing.T) {
	// deltaSpec's DC1 beside a DC2 of four servers.
	buildTop := func(t *testing.T, dc1Podsets int) *topology.Topology {
		spec := deltaSpec(dc1Podsets)
		spec.DCs[1] = topology.DCSpec{Name: "DC2", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 4}
		top, err := topology.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	var comp httpcache.Compressor
	var oracle pinglist.DeltaWriter // its deltas do not depend on its history (FuzzDeltaRoundTrip)
	podsets := []int{8, 9, 8, 8, 10}
	top := buildTop(t, podsets[0])
	var replicas []*Controller
	for _, workers := range []int{1, 2, 4} {
		cfg := core.DefaultGeneratorConfig()
		cfg.Parallelism = workers
		c, err := New(top, cfg, simclock.NewSim(time.Unix(1750000000, 0)))
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, c)
	}
	c, h := replicas[0], replicas[0].Handler()
	gens := []oracleGen{snapshotGen(t, c, top, &comp)}
	var patches, fulls, evicted int
	for _, n := range podsets[1:] {
		top = buildTop(t, n)
		for _, r := range replicas {
			if err := r.UpdateTopology(top); err != nil {
				t.Fatal(err)
			}
		}
		cur := snapshotGen(t, c, top, &comp)
		for back := 1; back <= len(gens); back++ {
			for name, base := range gens[len(gens)-back] {
				now, ok := cur[name]
				if !ok {
					continue // server left the topology
				}
				hdr := map[string]string{"If-None-Match": base.etag, "A-IM": DeltaIM}
				w := serveOnce(h, "/pinglist/"+name, hdr)
				out := c.ServeFetch(name, base.etag, true)
				if back > DefaultDeltaRing {
					evicted++
					if w.Code != http.StatusOK || out.Kind != FetchFull {
						t.Fatalf("%s from %d generations back: status %d, kind %d, want the full body", name, back, w.Code, out.Kind)
					}
					continue
				}
				want := oracle.Append(nil, base.body, now.body)
				if len(want) >= now.wire {
					fulls++
					if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), now.body) || out.Kind != FetchFull {
						t.Fatalf("%s back %d: delta %dB is not smaller than full %dB, yet status %d kind %d",
							name, back, len(want), now.wire, w.Code, out.Kind)
					}
					continue
				}
				patches++
				if w.Code != http.StatusIMUsed || !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("%s back %d: status %d, delta differs from the serial oracle:\n got %x\nwant %x",
						name, back, w.Code, w.Body.Bytes(), want)
				}
				if out.Kind != FetchDelta || out.ETag != now.etag ||
					out.BytesOnWire != int64(len(want)) {
					t.Fatalf("%s back %d: ServeFetch %+v, oracle %d bytes", name, back, out, len(want))
				}
				rebuilt, err := pinglist.Patch(base.body, w.Body.Bytes())
				if err != nil || !bytes.Equal(rebuilt, now.body) || httpcache.ETagFor(rebuilt) != w.Header().Get("ETag") {
					t.Fatalf("%s back %d: patching with the served delta: %v", name, back, err)
				}
			}
		}
		gens = append(gens, cur)
		for _, r := range replicas[1:] {
			if got, want := r.state.Load().deltas, c.state.Load().deltas; !maps.EqualFunc(got, want, func(a, b *deltaBody) bool {
				return bytes.Equal(a.data, b.data) && slices.Equal(a.etagH, b.etagH)
			}) {
				t.Fatalf("generation %s: replicas with different worker counts publish different deltas", c.Version())
			}
		}
	}
	// A pinglist's delta from its predecessor is smaller than its gzipped
	// body, so the oracle refuses none here as not smaller
	// (TestDeltaNotSmallerIsNotKept has the rule); evictions and deltas
	// must both occur.
	if patches == 0 || evicted == 0 {
		t.Fatalf("scenario served %d deltas, %d evicted fulls; want both", patches, evicted)
	}
	m := c.Metrics()
	if got := m.Counter("controller.delta_not_smaller").Value(); got != int64(fulls) {
		t.Errorf("controller.delta_not_smaller = %d, the oracle refused %d", got, fulls)
	}
	if got := m.Counter("controller.delta_build_errors").Value(); got != 0 {
		t.Errorf("controller.delta_build_errors = %d on well-formed generations", got)
	}
	st := c.state.Load()
	if got, want := m.Gauge("controller.patches").Value(), int64(len(st.deltas)); got <= 0 || got > want {
		t.Errorf("controller.patches = %d with %d (server, base) pairs published", got, want)
	}
}

// TestDeltaNotSmallerIsNotKept: a delta that does not beat the full body
// on the wire is not published. An incompressible body is one: it has no
// gzip form, and its delta is the body as one literal plus DEFLATE's
// framing.
func TestDeltaNotSmallerIsNotKept(t *testing.T) {
	body := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(body)
	cur, err := httpcache.New("application/xml", body)
	if err != nil || cur.Gzip() != nil {
		t.Fatalf("random body: gzip form %v (%v)", cur.Gzip() != nil, err)
	}
	var b builder
	if db, err := b.buildDelta(ringEntry{etag: `"base"`, comp: []byte("<Pinglist/>")}, nil, cur); db != noDelta || err != nil {
		t.Fatalf("delta of an incompressible body kept (%v)", err)
	}
}

// TestDeltaBuildErrorCounted: a ringed base whose gzip body is corrupt
// cannot be inflated to build a delta from. That is counted as a build error
// — apart from "not smaller" — and the base's holders get the full body.
func TestDeltaBuildErrorCounted(t *testing.T) {
	rig := newDeltaRig(t) // gen-2, with gen-1 in the ring
	// Corrupt gen-1's ringed copy of the rig's file; the next update rings
	// gen-2 from its live bodies in front of it, and must inflate gen-1.
	st := *rig.c.state.Load()
	gen1 := ringGen{version: st.ring[0].version, entries: maps.Clone(st.ring[0].entries)}
	e := gen1.entries[rig.name]
	if !e.gzipped {
		t.Fatal("the rig's file has no gzip form to corrupt")
	}
	e.comp = bytes.Clone(e.comp)
	e.comp[len(e.comp)/2] ^= 0xff
	gen1.entries[rig.name] = e
	st.ring = []ringGen{gen1}
	rig.c.state.Store(&st)
	gen2ETag := rig.c.ETag(rig.name)
	if err := rig.c.UpdateTopology(buildTop(t, 10)); err != nil {
		t.Fatal(err)
	}
	m := rig.c.Metrics()
	if got := m.Counter("controller.delta_build_errors").Value(); got != 1 {
		t.Fatalf("controller.delta_build_errors = %d, want 1", got)
	}
	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{"If-None-Match": rig.oldETag, "A-IM": DeltaIM})
	if w.Code != http.StatusOK || w.Header().Get("ETag") != rig.c.ETag(rig.name) {
		t.Fatalf("holder of an uninflatable base: status %d, want the current full body", w.Code)
	}
	if got := m.Counter("controller.delta_fallback_full").Value(); got != 1 {
		t.Fatalf("controller.delta_fallback_full = %d, want 1", got)
	}
	// The newer, intact generation of the same server still gets a delta.
	if w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{"If-None-Match": gen2ETag, "A-IM": DeltaIM}); w.Code != http.StatusIMUsed {
		t.Fatalf("intact base beside it: status %d, want 226", w.Code)
	}
}

// gateClock is a clock whose next Now, once armed, parks the caller until
// released. An UpdateTopology reads the clock after it has taken the
// outgoing generation for its ring and before it publishes, which is
// exactly where an unserialised Clear used to slip in.
type gateClock struct {
	simclock.Clock
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateClock) Now() time.Time {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Clock.Now()
}

// TestClearSerialisedWithUpdate issues the §3.4.2 fleet-wide stop while a
// topology update is in flight. The stop must take effect after the update
// it raced, not be published over by it, and the pre-clear generation must
// be gone for good: every server answers 404 once both have returned, and
// after the next generation no pre-clear ETag is answered with a patch.
func TestClearSerialisedWithUpdate(t *testing.T) {
	clk := &gateClock{
		Clock:   simclock.NewSim(time.Unix(1750000000, 0)),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	top := buildTop(t, 8)
	c, err := New(top, core.DefaultGeneratorConfig(), clk)
	if err != nil {
		t.Fatal(err)
	}
	old := map[string]string{}
	for _, s := range top.Servers() {
		old[s.Name] = c.ETag(s.Name)
	}

	clk.armed.Store(true)
	updated := make(chan error, 1)
	go func() { updated <- c.UpdateTopology(buildTop(t, 9)) }()
	<-clk.entered // the update is parked between demoting gen-1 and publishing
	cleared := make(chan struct{})
	go func() { c.Clear(); close(cleared) }()
	// A serialised Clear is blocked until the update returns; an
	// unserialised one lands now, inside the update's window. Give it the
	// chance, then let the update go.
	select {
	case <-cleared:
	case <-time.After(20 * time.Millisecond):
	}
	close(clk.release)
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
	<-cleared

	if n := c.PinglistCount(); n != 0 {
		t.Fatalf("%d pinglists served after Clear returned: the update published over it", n)
	}
	h := c.Handler()
	for name := range old {
		if w := serveOnce(h, "/pinglist/"+name, nil); w.Code != http.StatusNotFound {
			t.Fatalf("%s after Clear: status %d, want 404", name, w.Code)
		}
	}
	if err := c.UpdateTopology(top); err != nil {
		t.Fatal(err)
	}
	for name, etag := range old {
		w := serveOnce(h, "/pinglist/"+name, map[string]string{"If-None-Match": etag, "A-IM": DeltaIM})
		if w.Code != http.StatusOK {
			t.Fatalf("%s with a pre-clear ETag: status %d, want 200 — the cleared generation is back in the ring", name, w.Code)
		}
	}
}
