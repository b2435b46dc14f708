package controller

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"pingmesh/internal/pinglist"
	"pingmesh/internal/simclock"
)

// Client fetches pinglists from a Pingmesh Controller (usually through the
// SLB VIP). Agents poll with it; the controller never pushes.
//
// The client remembers the ETag and parsed body of the last pinglist per
// server and revalidates with If-None-Match, so an unchanged pinglist
// costs a 304 Not Modified instead of a full download; a changed pinglist
// costs a small patch (226 IM Used) applied to the cached copy and
// verified against the new generation's ETag, with automatic fallback to
// a full download if verification fails. It advertises Accept-Encoding:
// gzip and decompresses the precompressed bodies the controller serves.
// All of it degrades cleanly against a controller that sends none of
// these. Transient failures (transport errors, 5xx) are retried with
// capped exponential backoff and jitter so one replica blip behind the
// VIP doesn't strand an agent on a stale pinglist until the next refresh
// interval.
type Client struct {
	// BaseURL is the controller endpoint, e.g. "http://10.255.0.1:8080".
	BaseURL string
	// HTTPClient optionally overrides the transport. Defaults to a client
	// with a 10s timeout.
	HTTPClient *http.Client
	// DisableCache turns off ETag revalidation; every fetch downloads the
	// full body. Useful for tests and for memory-constrained callers that
	// fetch many servers' lists through one client.
	DisableCache bool

	// MaxRetries bounds how many times a failed fetch is retried on
	// transient errors (transport failures and 5xx responses). 0 means the
	// default of 2 (three attempts total); negative disables retries.
	MaxRetries int
	// BackoffBase is the first retry's nominal delay (default 100ms); each
	// further retry doubles it, capped at BackoffMax (default 2s). The
	// actual sleep is equal-jittered: uniform in [d/2, d].
	BackoffBase time.Duration
	// BackoffMax caps the nominal backoff delay.
	BackoffMax time.Duration
	// Clock drives the backoff sleeps. nil means wall time.
	Clock simclock.Clock

	mu    sync.Mutex
	cache map[string]*cacheEntry
	stats ClientStats
}

// cacheEntry is the last validated pinglist for one server.
type cacheEntry struct {
	etag string
	file *pinglist.File
}

// copyFile returns a caller-owned copy so cache contents stay immutable.
func (e *cacheEntry) copyFile() *pinglist.File {
	f := *e.file
	f.Peers = append([]pinglist.Peer(nil), e.file.Peers...)
	return &f
}

// ClientStats counts the client's transport behaviour.
type ClientStats struct {
	// Fetches is the number of successful Fetch calls.
	Fetches int64
	// NotModified is how many of those were answered by a 304 from cache.
	NotModified int64
	// BytesOnWire is the total body bytes read off the network (the gzip
	// form when the controller compressed).
	BytesOnWire int64
	// DeltaApplied is how many fetches were answered by a 226 patch that
	// verified cleanly against the cached copy.
	DeltaApplied int64
	// DeltaFallbacks is how many 226 responses failed to parse, apply, or
	// verify and were recovered by an unconditional full download.
	DeltaFallbacks int64
	// Retries is how many transient-failure retries were attempted.
	Retries int64
}

// FetchResult is a fetched pinglist plus how it was obtained.
type FetchResult struct {
	File *pinglist.File
	// NotModified is true when the controller answered 304 and File came
	// from the client's cache.
	NotModified bool
	// Delta is true when the controller answered 226 and File was
	// reconstructed by patching the cached copy.
	Delta bool
	// DeltaFallback is true when the controller answered 226 but the
	// patch failed to parse, apply or verify, and File came from the
	// unconditional full download that followed.
	DeltaFallback bool
	// BytesOnWire is the response body size as transferred, a wasted
	// patch's bytes included.
	BytesOnWire int64
}

// defaultClient disables keep-alives: agents poll the controller rarely
// (minutes apart), so holding idle connections through the VIP would only
// pin agents to one replica and delay replica drain.
var defaultClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultClient
}

// ErrNoPinglist is returned when the controller is reachable but has no
// pinglist for the server. Agents treat this as the fail-closed signal:
// remove all peers and stop probing (§3.4.2).
type ErrNoPinglist struct{ Server string }

func (e *ErrNoPinglist) Error() string {
	return fmt.Sprintf("controller: no pinglist available for %s", e.Server)
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) cachedETag(server string) (string, bool) {
	if c.DisableCache {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[server]
	if !ok {
		return "", false
	}
	return e.etag, true
}

// Fetch downloads and validates the pinglist for a server.
func (c *Client) Fetch(ctx context.Context, server string) (*pinglist.File, error) {
	res, err := c.FetchDetail(ctx, server)
	if err != nil {
		return nil, err
	}
	return res.File, nil
}

// FetchDetail is Fetch plus transport detail: whether the pinglist was
// revalidated with a 304 or patched from a 226 and how many bytes crossed
// the wire. The agent's refresh loop uses it to count cheap refreshes.
// Transient failures are retried per the Backoff fields.
func (c *Client) FetchDetail(ctx context.Context, server string) (res FetchResult, err error) {
	st, err := simclock.Retry(ctx, c.clock(), simclock.MaxRetries(c.MaxRetries, c.BackoffBase, c.BackoffMax), func() (err error) {
		res, err = c.fetchDetail(ctx, server, !c.DisableCache)
		return err
	})
	if st.Attempts > 1 {
		c.mu.Lock()
		c.stats.Retries += int64(st.Attempts - 1)
		c.mu.Unlock()
	}
	return res, err
}

func (c *Client) clock() simclock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return realClock
}

var realClock = simclock.NewReal()

func (c *Client) fetchDetail(ctx context.Context, server string, revalidate bool) (FetchResult, error) {
	u := fmt.Sprintf("%s/pinglist/%s", c.BaseURL, url.PathEscape(server))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return FetchResult{}, fmt.Errorf("controller: build request: %w", err)
	}
	// Explicit Accept-Encoding disables the transport's transparent
	// decompression, so Content-Encoding below is handled by hand.
	req.Header.Set("Accept-Encoding", "gzip")
	if revalidate {
		if etag, ok := c.cachedETag(server); ok {
			req.Header.Set("If-None-Match", etag)
			// With a validator on file, advertise that a patch from
			// that exact generation is acceptable.
			req.Header.Set("A-IM", DeltaIM)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return FetchResult{}, simclock.Transient(fmt.Errorf("controller: fetch pinglist: %w", err))
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		io.Copy(io.Discard, resp.Body)
		c.mu.Lock()
		e, ok := c.cache[server]
		if !ok || !revalidate {
			// A 304 without a cached body (cache cleared mid-flight, or a
			// server that 304s unconditional requests): refetch the full
			// body once rather than fail; error out if that also 304s.
			c.mu.Unlock()
			if !revalidate {
				return FetchResult{}, fmt.Errorf("controller: fetch pinglist: 304 to unconditional request")
			}
			c.dropCache(server)
			return c.fetchDetail(ctx, server, false)
		}
		c.stats.Fetches++
		c.stats.NotModified++
		f := e.copyFile()
		c.mu.Unlock()
		return FetchResult{File: f, NotModified: true}, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		c.dropCache(server)
		return FetchResult{}, &ErrNoPinglist{Server: server}
	case http.StatusIMUsed:
		return c.applyDelta(ctx, server, resp)
	case http.StatusOK:
		// fall through to body handling below
	default:
		io.Copy(io.Discard, resp.Body)
		err := fmt.Errorf("controller: fetch pinglist: status %d", resp.StatusCode)
		if resp.StatusCode >= 500 {
			return FetchResult{}, simclock.Transient(err)
		}
		return FetchResult{}, err
	}

	data, wire, err := readBody(resp)
	if err != nil {
		return FetchResult{}, err
	}
	f, err := pinglist.Unmarshal(data)
	if err != nil {
		return FetchResult{}, err
	}
	res := FetchResult{File: f, BytesOnWire: wire}
	c.mu.Lock()
	c.stats.Fetches++
	c.stats.BytesOnWire += wire
	if etag := resp.Header.Get("ETag"); etag != "" && !c.DisableCache {
		if c.cache == nil {
			c.cache = make(map[string]*cacheEntry)
		}
		e := &cacheEntry{etag: etag, file: f}
		c.cache[server] = e
		res.File = e.copyFile() // keep the cached copy caller-proof
	}
	c.mu.Unlock()
	return res, nil
}

// applyDelta handles a 226 IM Used response: parse the patch, apply it to
// the cached base generation, and verify the result against the target
// ETag. Any failure — parse, stale base, verification mismatch — falls
// back to one unconditional full download; a delta can delay convergence
// but never corrupt it. The cached base and the patch's peers were both
// validated as they were decoded, so the patched file needs no check of
// its own.
func (c *Client) applyDelta(ctx context.Context, server string, resp *http.Response) (FetchResult, error) {
	data, wire, err := readBody(resp)
	fallback := func() (FetchResult, error) {
		c.mu.Lock()
		c.stats.DeltaFallbacks++
		c.stats.BytesOnWire += wire // the failed patch still crossed the wire
		c.mu.Unlock()
		c.dropCache(server)
		res, err := c.fetchDetail(ctx, server, false)
		res.DeltaFallback = true
		res.BytesOnWire += wire
		return res, err
	}
	if err != nil {
		return fallback()
	}
	d, err := pinglist.UnmarshalDelta(data)
	if err != nil {
		return fallback()
	}

	c.mu.Lock()
	e, ok := c.cache[server]
	c.mu.Unlock()
	if !ok {
		// 226 with no cached base (cache cleared mid-flight): only a full
		// body can help.
		return fallback()
	}
	// Cache entries are immutable once published and ApplyVerified only
	// reads the base, so patching outside the lock is safe.
	f, _, err := pinglist.ApplyVerified(e.file, e.etag, d)
	if err != nil {
		return fallback()
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		etag = d.TargetETag
	}
	res := FetchResult{Delta: true, BytesOnWire: wire}
	c.mu.Lock()
	c.stats.Fetches++
	c.stats.DeltaApplied++
	c.stats.BytesOnWire += wire
	ne := &cacheEntry{etag: etag, file: f}
	if c.cache == nil {
		c.cache = make(map[string]*cacheEntry)
	}
	c.cache[server] = ne
	res.File = ne.copyFile()
	c.mu.Unlock()
	return res, nil
}

func (c *Client) dropCache(server string) {
	c.mu.Lock()
	delete(c.cache, server)
	c.mu.Unlock()
}

// gzipReaders holds inflaters for readBody, reused through Reset: a new
// one costs tens of kilobytes, a body a few hundred bytes.
var gzipReaders sync.Pool // *gzip.Reader

// readBody reads a response body, inflating it if it is gzipped, and
// returns it with the number of bytes that crossed the wire. Both sizes
// are bounded.
func readBody(resp *http.Response) (data []byte, wire int64, err error) {
	counted := &countingReader{r: io.LimitReader(resp.Body, 64<<20)}
	var body io.Reader = counted
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		zr, _ := gzipReaders.Get().(*gzip.Reader)
		if zr == nil {
			zr = new(gzip.Reader)
		}
		defer gzipReaders.Put(zr)
		if err := zr.Reset(counted); err != nil {
			return nil, counted.n, fmt.Errorf("controller: gzip body: %w", err)
		}
		body = io.LimitReader(zr, 64<<20)
	}
	data, err = io.ReadAll(body)
	if err != nil {
		return nil, counted.n, fmt.Errorf("controller: read body: %w", err)
	}
	return data, counted.n, nil
}

// countingReader counts bytes as they come off the wire.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
