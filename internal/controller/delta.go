package controller

// Delta serving (RFC 3229-style instance manipulation, applied to the
// §3.3 pinglist API): the controller retains a bounded ring of recent
// generations — per server just the strong ETag and the compressed body,
// so the ring costs gzip-sized memory, not parsed-peer memory — and
// answers a conditional GET whose If-None-Match names a ringed generation
// with a small patch (226 IM Used) instead of the whole file. The patch
// body for every (server, base-generation) pair is built with the
// generation, in the worker that marshals the server's file, and published
// immutably with it — at most ring depth × servers bodies — so a fleet
// converging through a topology update costs a zero-allocation map lookup
// per request from its first request on, exactly like the 304 and full
// cached paths.
//
// Protocol:
//
//	request:  If-None-Match: <agent's etag>   A-IM: pingmesh-delta
//	response: 304                             etag current: nothing to send
//	          226 IM Used, IM: pingmesh-delta etag in ring: delta body,
//	                                          ETag header = TARGET etag
//	          200 OK                          etag unknown/evicted: full body
//
// The ETag on a 226 is the target generation's full-body validator, so the
// agent's next revalidation works unchanged, and a 304 from any replica
// stays valid for a body (full or patched) obtained from any other.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pingmesh/internal/httpcache"
	"pingmesh/internal/pinglist"
)

// DeltaIM is the instance-manipulation token agents advertise in A-IM and
// the controller echoes in IM.
const DeltaIM = "pingmesh-delta"

// DeltaContentType is the media type of a delta body.
const DeltaContentType = "application/vnd.pingmesh.delta+xml"

// DefaultDeltaRing is how many previous generations a controller retains
// for delta serving.
const DefaultDeltaRing = 3

// Precomputed immutable header values (canonical MIME keys, shared slices
// — same zero-allocation discipline as httpcache).
var (
	deltaCtypeH = []string{DeltaContentType}
	deltaIMH    = []string{DeltaIM}
	deltaVaryH  = []string{"Accept-Encoding, A-IM"}
	deltaGzH    = []string{"gzip"}
)

// ringGen is one retained previous generation: per server, the strong
// ETag and the body in its smallest precomputed form.
type ringGen struct {
	version string
	entries map[string]ringEntry
}

// ringEntry is one server's file in a retained generation.
type ringEntry struct {
	etag    string
	comp    []byte // gzip body when gzipped, else raw body
	gzipped bool
}

// deltaKey addresses a cached delta body: the server plus the base
// generation's ETag exactly as the agent presents it in If-None-Match.
// A struct key keeps the hot-path lookup allocation-free.
type deltaKey struct {
	server string
	base   string
}

// deltaBody is one precomputed patch response: raw and gzip forms plus
// the TARGET generation's ETag as validator, served as 226 IM Used.
type deltaBody struct {
	data    []byte
	gz      []byte
	etagH   []string
	clenH   []string
	clenGzH []string
}

// noDelta marks (server, base) pairs where a patch is impossible or not
// smaller than the full body.
var noDelta = &deltaBody{}

// serve writes the delta response. The steady-state path allocates
// nothing: every header value is a precomputed shared slice.
func (b *deltaBody) serve(w http.ResponseWriter, r *http.Request) int {
	h := w.Header()
	h["Etag"] = b.etagH
	h["Vary"] = deltaVaryH
	h["Im"] = deltaIMH
	h["Content-Type"] = deltaCtypeH
	body, clen := b.data, b.clenH
	if b.gz != nil && httpcache.AcceptsGzip(r) {
		h["Content-Encoding"] = deltaGzH
		body, clen = b.gz, b.clenGzH
	}
	h["Content-Length"] = clen
	w.WriteHeader(http.StatusIMUsed)
	w.Write(body)
	return len(body)
}

// wire returns the negotiated body size: the gzip form when one exists.
func (b *deltaBody) wire() int64 {
	if b.gz != nil {
		return int64(len(b.gz))
	}
	return int64(len(b.data))
}

// aimValues returns the request's A-IM header values without allocating.
// net/http stores header keys in canonical MIME form, and for "A-IM" that
// form is "A-Im" — textproto capitalizes only the first letter of each
// hyphen-separated part, it does not know IM is an acronym. Indexing the
// map with that literal key is what keeps this allocation-free: calling
// r.Header.Get("A-IM") would canonicalize (allocate) the key on every
// request. TestAIMCanonicalKeyPinned guards the literal against a stdlib
// canonicalization change; TestWantsDeltaZeroAlloc guards the no-alloc
// property itself.
func aimValues(r *http.Request) []string {
	return r.Header["A-Im"]
}

// wantsDelta reports whether the request advertises the pingmesh-delta
// instance manipulation. Allocation-free A-IM list walk.
func wantsDelta(r *http.Request) bool {
	for _, v := range aimValues(r) {
		for rest := v; rest != ""; {
			var part string
			part, rest, _ = strings.Cut(rest, ",")
			if strings.EqualFold(strings.TrimSpace(part), DeltaIM) {
				return true
			}
		}
	}
	return false
}

// deltaFor returns the patch from the agent's base generation (named by
// inm) to this one. nil means "serve the full body instead": the base is
// unknown or evicted, or the patch would not be smaller. One map lookup,
// zero allocations; bogus ETags cost nothing and are remembered nowhere.
func (st *state) deltaFor(server, inm string) *deltaBody {
	if db := st.deltas[deltaKey{server, inm}]; db != noDelta {
		return db
	}
	return nil
}

// demote returns the generation ring a successor of prev publishes: prev's
// files in front, then prev's own ring up to DefaultDeltaRing generations.
// Only the ETag and the compressed body of each file are kept — the parsed
// peers and the httpcache headers are dropped — so the ring costs roughly
// gzip-sized memory per retained generation. A cleared or absent prev
// leaves nothing to patch from.
func demote(prev *state) []ringGen {
	if prev == nil || len(prev.files) == 0 {
		return nil
	}
	g := ringGen{version: prev.version, entries: make(map[string]ringEntry, len(prev.files))}
	for name, b := range prev.files {
		e := ringEntry{etag: b.ETag()}
		if gz := b.Gzip(); gz != nil {
			e.comp, e.gzipped = gz, true
		} else {
			e.comp = b.Data()
		}
		g.entries[name] = e
	}
	ring := append(make([]ringGen, 0, DefaultDeltaRing), g)
	return append(ring, prev.ring[:min(len(prev.ring), DefaultDeltaRing-1)]...)
}

// builder is one UpdateTopology worker: the compressor and scratch space
// it reuses from server to server, and what it has built.
type builder struct {
	comp httpcache.Compressor
	base []byte // gunzip scratch

	patches                 []patch
	notSmaller, buildErrors int64 // how many of patches are noDelta, by reason
	patchWall               time.Duration
	err                     error // first failure to build a file; stops the worker
}

// patch is one entry of the next state's delta map.
type patch struct {
	key  deltaKey
	body *deltaBody
}

// build marshals, compresses and hashes one server's file, then builds
// the patch to it from that server's file in every ringed generation.
// ring[0] is prev demoted, and prev's raw bodies stay live until its
// successor is stored, so that generation's base is read raw from prev;
// only the older ones are inflated.
func (b *builder) build(f *pinglist.File, name string, prev *state, ring []ringGen) *httpcache.Body {
	data, err := pinglist.Marshal(f)
	if err != nil {
		b.err = fmt.Errorf("marshal pinglist for %s: %w", name, err)
		return nil
	}
	cur, err := b.comp.New("application/xml", data)
	if err != nil {
		b.err = fmt.Errorf("pinglist for %s: %w", name, err)
		return nil
	}
	t0 := time.Now()
	target := "" // data as a string, converted once for all of its patches
	for gi := range ring {
		base, ok := ring[gi].entries[name]
		if !ok || base.etag == cur.ETag() {
			continue
		}
		if target == "" {
			target = string(data)
		}
		var live []byte
		if gi == 0 {
			live = prev.files[name].Data()
		}
		db, err := b.buildDelta(base, live, cur, target, f)
		switch {
		case err != nil:
			b.buildErrors++
		case db == noDelta:
			b.notSmaller++
		}
		b.patches = append(b.patches, patch{deltaKey{name, base.etag}, db})
	}
	b.patchWall += time.Since(t0)
	return cur
}

// buildDelta computes the patch from a ringed base to the current body
// without parsing either: the base's raw body — live when the caller holds
// it, else the ring's copy, inflated — is diffed line by line against the
// body just marshaled from f. A patch that would not beat the full body on
// the wire is noDelta, and so is any failure — the agent simply downloads
// the full file — but a failure is returned too, so the two are counted
// apart.
func (b *builder) buildDelta(base ringEntry, live []byte, cur *httpcache.Body, target string, f *pinglist.File) (*deltaBody, error) {
	old := base.comp
	switch {
	case live != nil:
		old = live
	case base.gzipped:
		var err error
		if b.base, err = b.comp.Gunzip(b.base[:0], base.comp); err != nil {
			return noDelta, err
		}
		old = b.base
	}
	d, err := pinglist.DiffMarshaled(string(old), target, f, base.etag, cur.ETag())
	if err != nil {
		return noDelta, err
	}
	data, err := pinglist.MarshalDelta(d)
	if err != nil {
		return noDelta, err
	}
	gz, err := b.comp.Gzip(data)
	if err != nil {
		return noDelta, err
	}
	db := &deltaBody{data: data, gz: gz, etagH: []string{cur.ETag()}, clenH: []string{strconv.Itoa(len(data))}}
	if gz != nil {
		db.clenGzH = []string{strconv.Itoa(len(gz))}
	}
	fullWire := len(cur.Data())
	if gz := cur.Gzip(); gz != nil {
		fullWire = len(gz)
	}
	if int(db.wire()) >= fullWire {
		return noDelta, nil // the full body is already the cheaper answer
	}
	return db, nil
}

// FetchKind classifies how an in-process fetch was answered.
type FetchKind uint8

// The in-process fetch outcomes, mirroring the HTTP statuses.
const (
	FetchNotFound    FetchKind = iota // 404: no pinglist (fail-closed signal)
	FetchNotModified                  // 304: agent's copy is current
	FetchDelta                        // 226: patch from a ringed generation
	FetchFull                         // 200: full body
)

// FetchOutcome reports one in-process fetch: what kind of answer was
// served, the validator the agent must remember, and the body cost both as
// negotiated on the wire (gzip-preferred, like real agents) and in
// identity encoding.
type FetchOutcome struct {
	Kind          FetchKind
	ETag          string
	Version       string
	BytesOnWire   int64
	BytesIdentity int64
}

// ServeFetch answers one pinglist fetch without HTTP: the same decision
// procedure as Handler — If-None-Match → 304, known base in the ring →
// delta, otherwise full body — sharing the same patches and counters.
// The pipeline benchmark's fleet_churn workload drives its simulated
// agents through it; it is safe for concurrent use.
func (c *Controller) ServeFetch(server, ifNoneMatch string, wantDelta bool) FetchOutcome {
	st := c.state.Load()
	b, ok := st.files[server]
	if !ok {
		c.cMisses.Inc()
		return FetchOutcome{Kind: FetchNotFound, Version: st.version}
	}
	if ifNoneMatch != "" && httpcache.ETagMatches(ifNoneMatch, b.ETag()) {
		c.cNotModified.Inc()
		return FetchOutcome{Kind: FetchNotModified, ETag: b.ETag(), Version: st.version}
	}
	if wantDelta && ifNoneMatch != "" {
		if db := st.deltaFor(server, ifNoneMatch); db != nil {
			wire := db.wire()
			c.cDeltaServes.Inc()
			c.cDeltaBytes.Add(wire)
			return FetchOutcome{
				Kind: FetchDelta, ETag: b.ETag(), Version: st.version,
				BytesOnWire: wire, BytesIdentity: int64(len(db.data)),
			}
		}
		c.cDeltaFallbacks.Inc()
	}
	wire := int64(len(b.Data()))
	if gz := b.Gzip(); gz != nil {
		wire = int64(len(gz))
	}
	c.cServes.Inc()
	c.cBytes.Add(wire)
	return FetchOutcome{
		Kind: FetchFull, ETag: b.ETag(), Version: st.version,
		BytesOnWire: wire, BytesIdentity: int64(len(b.Data())),
	}
}
