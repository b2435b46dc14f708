// Package httpcache is the shared serving core behind every read-mostly
// Pingmesh HTTP surface: the controller's pinglist files (§3.3) and the
// portal's query endpoints (§6.3). A Body is one immutable response
// precomputed at publish time — raw bytes, gzip variant, strong
// content-hash ETag — so that serving a million identical reads costs a
// pointer load, and revalidating an unchanged read (If-None-Match → 304)
// costs no body bytes and no allocations at all.
//
// Because ETags are content hashes, identical content published by any
// replica yields identical validators: a 304 from one replica is valid
// for a body downloaded from any other.
package httpcache

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Shared immutable header value slices, assigned directly into response
// header maps so the steady-state serve path performs no per-request
// allocation. Keys used with direct map assignment must be in canonical
// MIME-header form ("Etag", not "ETag" — http.Header.Get canonicalizes, so
// readers see no difference).
var (
	gzipEncoding       = []string{"gzip"}
	varyAcceptEncoding = []string{"Accept-Encoding"}
)

// Header keys in canonical form for direct map assignment.
const (
	hdrETag            = "Etag"
	hdrVary            = "Vary"
	hdrContentType     = "Content-Type"
	hdrContentLength   = "Content-Length"
	hdrContentEncoding = "Content-Encoding"
)

// Body is one precomputed immutable response: content, gzip variant, and
// strong ETag. Build once per publication epoch with New; Serve from as
// many goroutines as you like.
type Body struct {
	data []byte
	gz   []byte
	etag string

	// Precomputed single-value header slices (see package comment).
	etagH   []string
	ctypeH  []string
	clenH   []string // Content-Length of data
	clenGzH []string // Content-Length of gz
}

// MinGzipSize is the body size below which New skips the gzip variant:
// tiny bodies grow under gzip framing and the variant would never win.
const MinGzipSize = 64

// New builds a Body from content, precomputing the gzip variant and the
// strong content-hash ETag. data is retained, not copied: callers hand
// over ownership. It is the one-off form of Compressor.New: a publisher
// with more than one body to build keeps a Compressor for the batch.
func New(contentType string, data []byte) (*Body, error) {
	var c Compressor
	return c.New(contentType, data)
}

// Compressor builds the bodies of one publication batch with one gzip
// writer and one gzip reader between them: a compress/flate compressor is
// ≈650 KB of tables, which dwarfs the few-KB bodies published here, so
// constructing one per body made allocation the cost of a publish. The
// zero value is ready to use; a Compressor is not safe for concurrent use
// (each publishing goroutine owns one) and is meant to be dropped with the
// batch — deliberately not a package-level sync.Pool, whose pooled
// compressors would outlive every publish as resident heap.
type Compressor struct {
	zw  *gzip.Writer
	zr  *gzip.Reader
	buf bytes.Buffer
	src bytes.Reader
}

// New is the batch form of the package-level New, with identical output.
func (c *Compressor) New(contentType string, data []byte) (*Body, error) {
	gz, err := c.Gzip(data)
	if err != nil {
		return nil, err
	}
	b := &Body{data: data, gz: gz, etag: ETagFor(data)}
	b.etagH = []string{b.etag}
	b.ctypeH = []string{contentType}
	b.clenH = []string{strconv.Itoa(len(b.data))}
	if b.gz != nil {
		b.clenGzH = []string{strconv.Itoa(len(b.gz))}
	}
	return b, nil
}

// Gzip returns the gzip (BestSpeed) form of data in a slice of its own, or
// nil when a variant is not worth keeping: data is under MinGzipSize or
// does not shrink.
func (c *Compressor) Gzip(data []byte) ([]byte, error) {
	if len(data) < MinGzipSize {
		return nil, nil
	}
	c.buf.Reset()
	if c.zw == nil {
		c.zw, _ = gzip.NewWriterLevel(&c.buf, gzip.BestSpeed)
	} else {
		c.zw.Reset(&c.buf)
	}
	c.zw.Write(data)
	if err := c.zw.Close(); err != nil {
		return nil, fmt.Errorf("httpcache: gzip: %w", err)
	}
	if c.buf.Len() >= len(data) {
		return nil, nil
	}
	return bytes.Clone(c.buf.Bytes()), nil
}

// maxGunzip bounds what Gunzip will inflate: far above any body published
// here, far below what a corrupt stream could cost.
const maxGunzip = 64 << 20

// Gunzip appends the decompressed form of gz (a Body.Gzip value) to dst.
func (c *Compressor) Gunzip(dst, gz []byte) ([]byte, error) {
	c.src.Reset(gz)
	var err error
	if c.zr == nil {
		c.zr, err = gzip.NewReader(&c.src)
	} else {
		err = c.zr.Reset(&c.src)
	}
	if err == nil {
		buf := bytes.NewBuffer(dst)
		_, err = buf.ReadFrom(io.LimitReader(c.zr, maxGunzip))
		dst = buf.Bytes()
	}
	if err != nil {
		return dst, fmt.Errorf("httpcache: gunzip: %w", err)
	}
	return dst, nil
}

// MustNew is New for static bodies that cannot fail.
func MustNew(contentType string, data []byte) *Body {
	b, err := New(contentType, data)
	if err != nil {
		panic(err)
	}
	return b
}

// Data returns the raw (identity-encoded) content.
func (b *Body) Data() []byte { return b.data }

// Gzip returns the precompressed variant, or nil if the body has none.
func (b *Body) Gzip() []byte { return b.gz }

// ETag returns the strong validator (quoted hex of the content hash).
func (b *Body) ETag() string { return b.etag }

// Result reports what Serve did, for caller-side metrics.
type Result struct {
	Status  int
	Bytes   int  // body bytes written (0 on 304)
	Gzipped bool // whether the gzip variant was served
}

// Serve writes the body as the response to r, handling If-None-Match
// revalidation (→ 304, zero body bytes) and Accept-Encoding: gzip
// negotiation. It always emits the ETag and Vary headers so intermediate
// caches stay correct. The steady-state path allocates nothing: every
// header value is a precomputed slice assigned directly into the header
// map.
func (b *Body) Serve(w http.ResponseWriter, r *http.Request) Result {
	h := w.Header()
	h[hdrETag] = b.etagH
	h[hdrVary] = varyAcceptEncoding
	if ETagMatches(r.Header.Get("If-None-Match"), b.etag) {
		w.WriteHeader(http.StatusNotModified)
		return Result{Status: http.StatusNotModified}
	}
	h[hdrContentType] = b.ctypeH
	body, clen, gzipped := b.data, b.clenH, false
	if b.gz != nil && AcceptsGzip(r) {
		h[hdrContentEncoding] = gzipEncoding
		body, clen, gzipped = b.gz, b.clenGzH, true
	}
	h[hdrContentLength] = clen
	w.Write(body)
	return Result{Status: http.StatusOK, Bytes: len(body), Gzipped: gzipped}
}

// ETagFor computes the strong ETag for a body: quoted hex of a truncated
// SHA-256, identical for identical content on every replica.
func ETagFor(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// ETagMatches reports whether an If-None-Match header value matches the
// strong ETag. Handles "*", comma-separated candidate lists, and weak
// validators (W/ prefixed — a weak match suffices for GET revalidation
// per RFC 9110 §13.1.2). Allocation-free: candidates are walked with
// strings.Cut, never split into a slice.
func ETagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for rest := header; rest != ""; {
		var cand string
		cand, rest, _ = strings.Cut(rest, ",")
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// AcceptsGzip reports whether the request advertises gzip support. A plain
// substring check would wrongly match "gzip;q=0". Allocation-free.
func AcceptsGzip(r *http.Request) bool {
	for rest := r.Header.Get("Accept-Encoding"); rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		enc, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if q, ok := strings.CutPrefix(strings.TrimSpace(params), "q="); ok && strings.TrimSpace(q) == "0" {
			return false
		}
		return true
	}
	return false
}
