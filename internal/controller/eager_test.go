package controller

import (
	"bytes"
	"encoding/xml"
	"maps"
	"net/http"
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
// server's ETag, full body, and the body parsed the slow way.
type oracleGen map[string]*oracleFile

type oracleFile struct {
	etag string
	body []byte
	file *pinglist.File
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
		f, err := pinglist.Unmarshal(w.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		b, err := comp.New("application/xml", w.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		of := &oracleFile{etag: w.Header().Get("ETag"), body: w.Body.Bytes(), file: f, wire: len(b.Data())}
		if gz := b.Gzip(); gz != nil {
			of.wire = len(gz)
		}
		g[s.Name] = of
	}
	return g
}

// TestEagerPatchesEqualSerialOracle holds the patches UpdateTopology
// builds — on every core, from marshaled lines, with shared compressors —
// to the obvious serial construction: parse both files, Diff, MarshalDelta.
// Across five generations (grow, shrink, a regeneration that changes only
// the version header, grow again so the first generation leaves the ring)
// every (server, ringed base) pair must be served, by Handler and by
// ServeFetch alike, exactly the oracle's bytes — or the full body where
// the oracle's patch would not be smaller — and applying it must rebuild
// the current body exactly.
func TestEagerPatchesEqualSerialOracle(t *testing.T) {
	// deltaSpec's DC1 beside a DC2 of four servers: their files are so
	// small that no patch beats the gzipped body.
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
	podsets := []int{8, 9, 8, 8, 10}
	top := buildTop(t, podsets[0])
	c, err := New(top, core.DefaultGeneratorConfig(), simclock.NewSim(time.Unix(1750000000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	gens := []oracleGen{snapshotGen(t, c, top, &comp)}
	var patches, fulls, evicted int
	for _, n := range podsets[1:] {
		top = buildTop(t, n)
		if err := c.UpdateTopology(top); err != nil {
			t.Fatal(err)
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
				d, err := pinglist.Diff(base.file, now.file, base.etag, now.etag)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pinglist.MarshalDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				wantGz, err := comp.Gzip(want)
				if err != nil {
					t.Fatal(err)
				}
				wire := len(want)
				if wantGz != nil {
					wire = len(wantGz)
				}
				if wire >= now.wire {
					fulls++
					if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), now.body) || out.Kind != FetchFull {
						t.Fatalf("%s back %d: patch %dB is not smaller than full %dB, yet status %d kind %d",
							name, back, wire, now.wire, w.Code, out.Kind)
					}
					continue
				}
				patches++
				if w.Code != http.StatusIMUsed || !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("%s back %d: status %d, patch differs from the serial oracle:\n got %s\nwant %s",
						name, back, w.Code, w.Body.Bytes(), want)
				}
				if out.Kind != FetchDelta || out.ETag != now.etag ||
					out.BytesIdentity != int64(len(want)) || out.BytesOnWire != int64(wire) {
					t.Fatalf("%s back %d: ServeFetch %+v, oracle %d identity / %d wire bytes", name, back, out, len(want), wire)
				}
				hdr["Accept-Encoding"] = "gzip"
				if wz := serveOnce(h, "/pinglist/"+name, hdr); !bytes.Equal(wz.Body.Bytes(), wantGz) {
					t.Fatalf("%s back %d: gzip patch differs from the oracle's", name, back)
				}
				served, err := pinglist.UnmarshalDelta(w.Body.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if _, rebuilt, err := pinglist.ApplyVerified(base.file, base.etag, served); err != nil || !bytes.Equal(rebuilt, now.body) {
					t.Fatalf("%s back %d: applying the served patch: %v", name, back, err)
				}
			}
		}
		gens = append(gens, cur)
	}
	// The scenario must have exercised all three answers.
	if patches == 0 || fulls == 0 || evicted == 0 {
		t.Fatalf("scenario served %d patches, %d not-smaller fulls, %d evicted fulls; want all three", patches, fulls, evicted)
	}
	m := c.Metrics()
	if got := m.Counter("controller.delta_not_smaller").Value(); got == 0 {
		t.Error("controller.delta_not_smaller stayed 0 although patches were refused as not smaller")
	}
	if got := m.Counter("controller.delta_build_errors").Value(); got != 0 {
		t.Errorf("controller.delta_build_errors = %d on well-formed generations", got)
	}
	st := c.state.Load()
	if got, want := m.Gauge("controller.patches").Value(), int64(len(st.deltas)); got <= 0 || got > want {
		t.Errorf("controller.patches = %d with %d (server, base) pairs published", got, want)
	}
}

// TestDeltaBuildErrorCounted: a ringed base that is not in Marshal's form
// cannot be diffed by lines. That is counted as a build error — apart from
// "not smaller" — and the base's holders get the full body.
func TestDeltaBuildErrorCounted(t *testing.T) {
	rig := newDeltaRig(t)
	// Replace one current file with the same document in another layout,
	// as if an older release had published it; the next update rings it.
	st := *rig.c.state.Load()
	f, err := pinglist.Unmarshal(st.files[rig.name].Data())
	if err != nil {
		t.Fatal(err)
	}
	compact, err := xml.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := httpcache.New("application/xml", compact)
	if err != nil {
		t.Fatal(err)
	}
	st.files = maps.Clone(st.files)
	st.files[rig.name] = foreign
	rig.c.state.Store(&st)
	if err := rig.c.UpdateTopology(buildTop(t, 9)); err != nil {
		t.Fatal(err)
	}
	m := rig.c.Metrics()
	if got := m.Counter("controller.delta_build_errors").Value(); got != 1 {
		t.Fatalf("controller.delta_build_errors = %d, want 1", got)
	}
	w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{"If-None-Match": foreign.ETag(), "A-IM": DeltaIM})
	if w.Code != http.StatusOK || w.Header().Get("ETag") != rig.c.ETag(rig.name) {
		t.Fatalf("holder of an undiffable base: status %d, want the current full body", w.Code)
	}
	if got := m.Counter("controller.delta_fallback_full").Value(); got != 1 {
		t.Fatalf("controller.delta_fallback_full = %d, want 1", got)
	}
	// The older, well-formed generation of the same server still patches.
	if w := serveOnce(rig.h, "/pinglist/"+rig.name, map[string]string{"If-None-Match": rig.oldETag, "A-IM": DeltaIM}); w.Code != http.StatusIMUsed {
		t.Fatalf("well-formed base beside it: status %d, want 226", w.Code)
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
