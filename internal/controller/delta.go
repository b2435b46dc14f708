package controller

// Delta serving (RFC 3229-style instance manipulation, applied to the
// §3.3 pinglist API): the controller retains a bounded ring of recent
// generations — per server just the strong ETag and the compressed body,
// so the ring costs gzip-sized memory, not parsed-peer memory — and
// answers a conditional GET whose If-None-Match names a ringed generation
// with a small patch (226 IM Used) instead of the whole file. The patch
// body for each (server, base-generation) pair is built lazily on first
// request and cached immutably for the lifetime of the generation, so the
// steady state of a fleet converging through a topology update is a
// zero-allocation map lookup per request, exactly like the 304 and full
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
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"strings"

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
// smaller than the full body; cached so the decision is made once.
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

// deltaFor returns the cached patch from the agent's base generation
// (named by inm) to the current one, building and caching it on first
// request. nil means "serve the full body instead": the base is unknown,
// evicted, or the patch would not be smaller. The fast path is one atomic
// load and one map lookup with zero allocations.
func (c *Controller) deltaFor(st *state, server, inm string) *deltaBody {
	if m := st.deltas.Load(); m != nil {
		if db, ok := (*m)[deltaKey{server, inm}]; ok {
			if db == noDelta {
				return nil
			}
			return db
		}
	}
	st.deltaMu.Lock()
	defer st.deltaMu.Unlock()
	if m := st.deltas.Load(); m != nil { // lost a build race: re-check
		if db, ok := (*m)[deltaKey{server, inm}]; ok {
			if db == noDelta {
				return nil
			}
			return db
		}
	}
	var base ringEntry
	found := false
	for gi := range st.ring {
		if e, ok := st.ring[gi].entries[server]; ok && e.etag == inm {
			base = e
			found = true
			break
		}
	}
	if !found {
		// Unknown or evicted base: full fetch. Deliberately not cached —
		// the key space of bogus ETags is attacker-controlled.
		return nil
	}
	cur, ok := st.files[server]
	if !ok {
		return nil
	}
	db := buildDelta(base, cur)
	c.cDeltaBuilds.Inc()
	old := st.deltas.Load()
	var m map[deltaKey]*deltaBody
	if old == nil {
		m = make(map[deltaKey]*deltaBody, 64)
	} else {
		m = make(map[deltaKey]*deltaBody, len(*old)+1)
		for k, v := range *old {
			m[k] = v
		}
	}
	m[deltaKey{server, inm}] = db
	st.deltas.Store(&m)
	if db == noDelta {
		return nil
	}
	return db
}

// buildDelta computes the patch from a ringed base to the current body.
// Both sides are re-parsed from their retained wire forms — the ring keeps
// no parsed peers — then diffed, marshaled and precompressed. Any failure,
// and any patch that would not beat the full body on the wire, degrades to
// noDelta (the agent simply downloads the full file).
func buildDelta(base ringEntry, cur *httpcache.Body) *deltaBody {
	oldRaw := base.comp
	if base.gzipped {
		zr, err := gzip.NewReader(bytes.NewReader(base.comp))
		if err != nil {
			return noDelta
		}
		oldRaw, err = io.ReadAll(io.LimitReader(zr, 64<<20))
		if err != nil {
			return noDelta
		}
	}
	oldF, err := pinglist.Unmarshal(oldRaw)
	if err != nil {
		return noDelta
	}
	curF, err := pinglist.Unmarshal(cur.Data())
	if err != nil {
		return noDelta
	}
	d, err := pinglist.Diff(oldF, curF, base.etag, cur.ETag())
	if err != nil {
		return noDelta
	}
	data, err := pinglist.MarshalDelta(d)
	if err != nil {
		return noDelta
	}
	fullWire := len(cur.Data())
	if gz := cur.Gzip(); gz != nil {
		fullWire = len(gz)
	}
	db := &deltaBody{data: data, etagH: []string{cur.ETag()}, clenH: []string{itoa(len(data))}}
	if len(data) >= httpcache.MinGzipSize {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		zw.Write(data)
		if err := zw.Close(); err == nil && buf.Len() < len(data) {
			db.gz = buf.Bytes()
			db.clenGzH = []string{itoa(len(db.gz))}
		}
	}
	if int(db.wire()) >= fullWire {
		return noDelta // the full body is already the cheaper answer
	}
	return db
}

// itoa is strconv.Itoa for the non-negative lengths above, kept local so
// delta.go's imports stay minimal.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
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
// delta, otherwise full body — sharing the same delta cache and counters.
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
		if db := c.deltaFor(st, server, ifNoneMatch); db != nil {
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
