package main

// reads.go is the portal's read-side load: closed-loop GETs over loopback,
// keep-alive, one connection per worker. Every second request revalidates
// the previous URL with the ETag just received and expects a 304; every
// fourth asks for gzip. Each response's status and X-Pingmesh-Epoch are
// checked against what was just published.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

type reader struct {
	base    string
	clients []*http.Client
}

func newReader(base string, conns int) *reader {
	rd := &reader{base: base}
	for i := 0; i < conns; i++ {
		rd.clients = append(rd.clients, keepAliveClient())
	}
	return rd
}

func (rd *reader) close() {
	for _, c := range rd.clients {
		c.CloseIdleConnections()
	}
}

// readStats is one read phase's tally.
type readStats struct {
	lat      []time.Duration // every request
	triage   []time.Duration
	diagnose []time.Duration
	n304     int64
	failures []string
}

func (s *readStats) merge(o *readStats) {
	s.lat = append(s.lat, o.lat...)
	s.triage = append(s.triage, o.triage...)
	s.diagnose = append(s.diagnose, o.diagnose...)
	s.n304 += o.n304
	s.failures = append(s.failures, o.failures...)
}

// reply is what the checks need of one response.
type reply struct {
	status      int
	etag, epoch string
	body        []byte // only when asked for; the body is always drained
}

// get issues one GET.
func get(c *http.Client, url, ifNoneMatch string, gzip, keepBody bool) (r reply, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return r, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := c.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r = reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), epoch: resp.Header.Get("X-Pingmesh-Epoch")}
	if keepBody {
		r.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return r, err
}

// index is what a dashboard learns from "/" and "/sla": the URL set of the
// published epoch and its SLA rows.
type index struct {
	urls []string
	rows []slaRow
}

// fetchIndex reads "/" and "/sla" over the first connection (two reads).
func (rd *reader) fetchIndex(epoch uint64, extra []string) (*index, *readStats) {
	st := &readStats{}
	var doc struct {
		Scopes   []string `json:"scopes"`
		Heatmaps []string `json:"heatmaps"`
	}
	ix := &index{}
	for _, step := range []struct {
		path string
		into any
	}{{"/", &doc}, {"/sla", &ix.rows}} {
		t0 := time.Now()
		r, err := get(rd.clients[0], rd.base+step.path, "", false, true)
		st.lat = append(st.lat, time.Since(t0))
		switch {
		case err != nil:
			st.failures = append(st.failures, fmt.Sprintf("GET %s: %v", step.path, err))
		case r.status != http.StatusOK || r.epoch != strconv.FormatUint(epoch, 10):
			st.failures = append(st.failures, fmt.Sprintf("GET %s: status %d epoch %q, want 200 epoch %d", step.path, r.status, r.epoch, epoch))
		default:
			if err := json.Unmarshal(r.body, step.into); err != nil {
				st.failures = append(st.failures, fmt.Sprintf("GET %s: %v", step.path, err))
			}
		}
	}
	ix.urls = append(ix.urls, "/sla", "/alerts", "/metrics")
	for _, sc := range doc.Scopes {
		ix.urls = append(ix.urls, "/sla/"+sc)
	}
	for _, dc := range doc.Heatmaps {
		ix.urls = append(ix.urls, "/heatmap/"+dc, "/heatmap/"+dc+".svg")
	}
	ix.urls = append(ix.urls, extra...)
	return ix, st
}

// phase runs perConn requests on every connection at once and returns the
// merged tally. With a recorder, each request is a span under parent.
func (rd *reader) phase(urls []string, perConn int, epoch uint64, rec *recorder, parent int32, win int) *readStats {
	want := strconv.FormatUint(epoch, 10)
	stats := make([]readStats, len(rd.clients))
	var wg sync.WaitGroup
	for w, c := range rd.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stats[w]
			st.lat = make([]time.Duration, 0, perConn)
			offset := w * len(urls) / len(rd.clients)
			etag := ""
			for i := 0; i < perConn; i++ {
				path := urls[(offset+i/2)%len(urls)]
				cond := ""
				if i%2 == 1 {
					cond = etag
				}
				t0 := time.Now()
				r, err := get(c, rd.base+path, cond, i%4 == 0, false)
				t1 := time.Now()
				d := t1.Sub(t0)
				st.lat = append(st.lat, d)
				rec.add(parent, "portal", "read", win, t0, t1, 1, 0)
				wantStatus := http.StatusOK
				if cond != "" {
					wantStatus = http.StatusNotModified
					st.n304++
				}
				switch {
				case strings.HasPrefix(path, "/triage"):
					st.triage = append(st.triage, d)
				case strings.HasPrefix(path, "/diagnose?"):
					st.diagnose = append(st.diagnose, d)
				}
				switch {
				case err != nil:
					st.failures = append(st.failures, fmt.Sprintf("GET %s: %v", path, err))
				case r.status != wantStatus:
					st.failures = append(st.failures, fmt.Sprintf("GET %s: status %d, want %d", path, r.status, wantStatus))
				case path != "/metrics" && r.epoch != want:
					st.failures = append(st.failures, fmt.Sprintf("GET %s: epoch %q, want %s", path, r.epoch, want))
				}
				etag = r.etag
			}
		}()
	}
	wg.Wait()
	out := &readStats{}
	for i := range stats {
		out.merge(&stats[i])
	}
	return out
}
