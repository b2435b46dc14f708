package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Point is one collected sample of a time series.
type Point struct {
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
}

// Store keeps named time series in fixed-capacity ring buffers with an
// hourly downsampling tier. It replaces the Perfcounter Aggregator's
// unbounded point slices: a series grows by appending until it reaches its
// raw capacity, then wraps in place — memory is bounded by construction
// and no trim ever strands an evicted backing-array head. Raw points age
// out after rawCap samples (≈28 days at the 5-minute cadence); the hourly
// tier keeps per-hour averages for hourlyCap more hours of history at 1/12
// the footprint.
//
// Points must be appended in non-decreasing time order per key (collectors
// sample on a clock, so this is the natural order).
type Store struct {
	mu   sync.Mutex
	m    map[string]*series
	keys []string // sorted, maintained at insert
}

type series struct {
	pts  []Point // ring: oldest at head once len == cap
	head int

	hpts  []Point // hourly tier ring
	hhead int
	hsum  float64
	hn    int
	hour  int64 // unix seconds of the hour being accumulated
}

// Ring capacities: 8192 raw points (the PA's historical cap) and 720
// hourly averages (30 days).
const (
	rawCap    = 8192
	hourlyCap = 720
)

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: map[string]*series{}}
}

// Append records one sample for key.
func (s *Store) Append(key string, at time.Time, v float64) {
	s.mu.Lock()
	sr, ok := s.m[key]
	if !ok {
		sr = &series{}
		s.m[key] = sr
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys, "")
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
	}
	s.appendLocked(sr, Point{At: at, Value: v})
	s.mu.Unlock()
}

// appendLocked pushes p into the raw ring and feeds the hourly tier.
// Growth is doubled-and-clamped to rawCap so the backing array never
// exceeds the bound (plain append could overshoot it).
func (s *Store) appendLocked(sr *series, p Point) {
	if len(sr.pts) < rawCap {
		if len(sr.pts) == cap(sr.pts) {
			newCap := 2 * cap(sr.pts)
			if newCap == 0 {
				newCap = 16
			}
			if newCap > rawCap {
				newCap = rawCap
			}
			grown := make([]Point, len(sr.pts), newCap)
			copy(grown, sr.pts)
			sr.pts = grown
		}
		sr.pts = append(sr.pts, p)
	} else {
		sr.pts[sr.head] = p
		sr.head++
		if sr.head == len(sr.pts) {
			sr.head = 0
		}
	}

	// Hourly tier: accumulate within the hour, flush the average when the
	// sample crosses an hour boundary.
	hour := p.At.Unix() - p.At.Unix()%3600
	if sr.hn > 0 && hour != sr.hour {
		s.flushHourLocked(sr)
	}
	sr.hour = hour
	sr.hsum += p.Value
	sr.hn++
}

func (s *Store) flushHourLocked(sr *series) {
	p := Point{At: time.Unix(sr.hour, 0).UTC(), Value: sr.hsum / float64(sr.hn)}
	if len(sr.hpts) < hourlyCap {
		if len(sr.hpts) == cap(sr.hpts) {
			newCap := 2 * cap(sr.hpts)
			if newCap == 0 {
				newCap = 8
			}
			if newCap > hourlyCap {
				newCap = hourlyCap
			}
			grown := make([]Point, len(sr.hpts), newCap)
			copy(grown, sr.hpts)
			sr.hpts = grown
		}
		sr.hpts = append(sr.hpts, p)
	} else {
		sr.hpts[sr.hhead] = p
		sr.hhead++
		if sr.hhead == len(sr.hpts) {
			sr.hhead = 0
		}
	}
	sr.hsum, sr.hn = 0, 0
}

// Series returns a copy of key's raw samples, oldest first. Nil for an
// unknown key.
func (s *Store) Series(key string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.m[key]
	if !ok || len(sr.pts) == 0 {
		return nil
	}
	out := make([]Point, 0, len(sr.pts))
	out = append(out, sr.pts[sr.head:]...)
	return append(out, sr.pts[:sr.head]...)
}

// Hourly returns a copy of key's hourly-average samples, oldest first.
// The hour still accumulating is not included.
func (s *Store) Hourly(key string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.m[key]
	if !ok || len(sr.hpts) == 0 {
		return nil
	}
	out := make([]Point, 0, len(sr.hpts))
	out = append(out, sr.hpts[sr.hhead:]...)
	return append(out, sr.hpts[:sr.hhead]...)
}

// Latest returns the most recent raw sample for key.
func (s *Store) Latest(key string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.m[key]
	if !ok || len(sr.pts) == 0 {
		return Point{}, false
	}
	i := sr.head - 1
	if i < 0 {
		i = len(sr.pts) - 1
	}
	return sr.pts[i], true
}

// Keys returns all series keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.keys...)
}

// Len returns the number of raw samples currently held for key.
func (s *Store) Len(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.m[key]
	if !ok {
		return 0
	}
	return len(sr.pts)
}
