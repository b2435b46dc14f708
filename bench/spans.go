package main

// spans.go is the benchmark's own span recorder. Every layer is timed from
// outside, around the call into it: one root span per window or round (its
// id is the identifier its descendants share), a child per phase, and a
// grandchild per batch or per worker lane inside a parallel phase. Spans are
// kept in a preallocated slice and written out when the run ends. A nil
// *recorder records nothing, and callers skip the per-batch clock reads.

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed interval. Lanes is how many children may run at once
// inside it (1 for a sequential phase, the worker count for a parallel one).
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Window   int32  `json:"window"`
	Lanes    int32  `json:"lanes"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Items    int64  `json:"items"`
	Bytes    int64  `json:"bytes"`
}

type recorder struct {
	workload string
	origin   time.Time
	next     atomic.Int64
	spans    []span
}

// benchLayer owns the spans that group others: roots and parallel phases.
// Its self time is what no layer under test accounts for — the gaps between
// a root's phases. A parallel phase's self time is reported as idleLayer
// instead: lanes that finished early and waited for the slowest one.
const (
	benchLayer = "bench"
	idleLayer  = "idle"
)

func newRecorder(workload string, capacity int) *recorder {
	return &recorder{workload: workload, origin: time.Now(), spans: make([]span, capacity)}
}

// open reserves a span and returns its id; 0 means not recorded. It is safe
// for concurrent use.
func (r *recorder) open(parent int32, layer, name string, window, lanes int, start time.Time) int32 {
	if r == nil {
		return 0
	}
	i := r.next.Add(1)
	if i > int64(len(r.spans)) {
		return 0
	}
	r.spans[i-1] = span{ID: int32(i), Parent: parent, Layer: layer, Name: name, Workload: r.workload,
		Window: int32(window), Lanes: int32(lanes), StartNS: int64(start.Sub(r.origin))}
	return int32(i)
}

func (r *recorder) close(id int32, end time.Time, items, bytes int64) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.EndNS, s.Items, s.Bytes = int64(end.Sub(r.origin)), items, bytes
}

// add records a finished leaf span.
func (r *recorder) add(parent int32, layer, name string, window int, start, end time.Time, items, bytes int64) {
	r.close(r.open(parent, layer, name, window, 1, start), end, items, bytes)
}

// dropped reports how many spans did not fit.
func (r *recorder) dropped() int64 {
	return max(r.next.Load()-int64(len(r.spans)), 0)
}

func (r *recorder) recorded() []span {
	return r.spans[:min(r.next.Load(), int64(len(r.spans)))]
}

// spanSum aggregates every span sharing a layer and a name.
type spanSum struct {
	n     int64
	dur   time.Duration
	items int64
	bytes int64
}

func (s spanSum) nsPer(n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.dur) / float64(n)
}

func (s spanSum) mbPerS() float64 {
	if s.dur == 0 {
		return 0
	}
	return float64(s.bytes) / 1e6 / s.dur.Seconds()
}

// sums keys the recorded spans by "layer.name".
func (r *recorder) sums() map[string]*spanSum {
	out := map[string]*spanSum{}
	for _, s := range r.recorded() {
		k := s.Layer + "." + s.Name
		a := out[k]
		if a == nil {
			a = &spanSum{}
			out[k] = a
		}
		d := time.Duration(s.EndNS - s.StartNS)
		a.n++
		a.dur += d
		a.items += s.Items
		a.bytes += s.Bytes
	}
	return out
}

// layerWall attributes the roots' wall time to layers. A span's self time is
// its duration minus the part its children cover, taken as their summed
// duration over the span's lanes; a span below a parallel phase counts for
// its share of that phase's lanes. The shares sum to the roots' wall.
func (r *recorder) layerWall() (byLayer map[string]time.Duration, roots time.Duration) {
	spans := r.recorded()
	children := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] += time.Duration(s.EndNS - s.StartNS)
	}
	weight := make([]float64, len(spans)+1) // ids ascend from parent to child
	weight[0] = 1
	byLayer = map[string]time.Duration{}
	for _, s := range spans {
		w := weight[s.Parent]
		if s.Parent != 0 {
			w /= float64(spans[s.Parent-1].Lanes)
		}
		weight[s.ID] = w
		dur := time.Duration(s.EndNS - s.StartNS)
		if s.Parent == 0 {
			roots += dur
		}
		self := dur - children[s.ID]/time.Duration(s.Lanes)
		layer := s.Layer
		if layer == benchLayer && s.Lanes > 1 {
			layer = idleLayer
		}
		byLayer[layer] += time.Duration(float64(max(self, 0)) * w)
	}
	return byLayer, roots
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.recorded())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
