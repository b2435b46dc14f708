package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStoreAppendAndSeries(t *testing.T) {
	s := NewStore()
	t0 := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		s.Append("k", t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	pts := s.Series("k")
	if len(pts) != 3 {
		t.Fatalf("len=%d", len(pts))
	}
	for i, p := range pts {
		if p.Value != float64(i) {
			t.Fatalf("pts[%d]=%v", i, p)
		}
	}
	if p, ok := s.Latest("k"); !ok || p.Value != 2 {
		t.Fatalf("Latest=%v ok=%v", p, ok)
	}
	if s.Series("missing") != nil {
		t.Fatal("unknown key returned non-nil")
	}
	if _, ok := s.Latest("missing"); ok {
		t.Fatal("Latest on unknown key")
	}
}

func TestStoreRingWraps(t *testing.T) {
	s := NewStore()
	t0 := time.Unix(1000, 0)
	for i := 0; i < rawCap+6; i++ {
		s.Append("k", t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	pts := s.Series("k")
	if len(pts) != rawCap {
		t.Fatalf("len=%d want %d", len(pts), rawCap)
	}
	for i, p := range pts {
		if p.Value != float64(6+i) {
			t.Fatalf("pts[%d]=%v want %d (oldest-first after wrap)", i, p, 6+i)
		}
	}
	if p, _ := s.Latest("k"); p.Value != rawCap+5 {
		t.Fatalf("Latest=%v", p)
	}
}

// TestStoreBoundedBacking is the regression for the PA retention bug: after
// 10x the capacity in appends, the backing array must still be exactly the
// capacity — no stranded array head, no append overshoot. A minute apart,
// the appends also wrap the hourly tier.
func TestStoreBoundedBacking(t *testing.T) {
	s := NewStore()
	t0 := time.Unix(0, 0)
	for i := 0; i < 10*rawCap; i++ {
		s.Append("k", t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	s.mu.Lock()
	sr := s.m["k"]
	if cap(sr.pts) > rawCap {
		t.Errorf("raw backing array cap=%d exceeds %d", cap(sr.pts), rawCap)
	}
	if cap(sr.hpts) > hourlyCap {
		t.Errorf("hourly backing array cap=%d exceeds %d", cap(sr.hpts), hourlyCap)
	}
	s.mu.Unlock()
	if n := s.Len("k"); n != rawCap {
		t.Fatalf("Len=%d want %d", n, rawCap)
	}
	if n := len(s.Hourly("k")); n != hourlyCap {
		t.Fatalf("hourly len=%d want %d", n, hourlyCap)
	}
}

func TestStoreHourlyTier(t *testing.T) {
	s := NewStore()
	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Hour 0: values 1..12 (mean 6.5). Hour 1: values 100 (x12, mean 100).
	for i := 0; i < 12; i++ {
		s.Append("k", t0.Add(time.Duration(i)*5*time.Minute), float64(i+1))
	}
	for i := 0; i < 12; i++ {
		s.Append("k", t0.Add(time.Hour).Add(time.Duration(i)*5*time.Minute), 100)
	}
	// Third hour's first sample flushes hour 1.
	s.Append("k", t0.Add(2*time.Hour), 0)
	h := s.Hourly("k")
	if len(h) != 2 {
		t.Fatalf("hourly len=%d want 2", len(h))
	}
	if h[0].Value != 6.5 || !h[0].At.Equal(t0) {
		t.Fatalf("hour 0: %+v", h[0])
	}
	if h[1].Value != 100 || !h[1].At.Equal(t0.Add(time.Hour)) {
		t.Fatalf("hour 1: %+v", h[1])
	}
}

func TestStoreKeysSorted(t *testing.T) {
	s := NewStore()
	now := time.Unix(0, 0)
	for _, k := range []string{"zeta", "alpha", "mid"} {
		s.Append(k, now, 1)
	}
	keys := s.Keys()
	want := []string{"alpha", "mid", "zeta"}
	if len(keys) != len(want) {
		t.Fatalf("keys=%v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys=%v want %v", keys, want)
		}
	}
	if NewStore().Keys() != nil {
		t.Fatal("empty store Keys should be nil")
	}
}

// TestStoreConcurrentAppend races writers of their own and of a shared key
// against readers — what the deleted autopilot.PA's churn test exercised on
// the store through its collectors (run under -race in CI tiers 2 and 2c).
// Each writer wraps its own ring; the readers copy a whole ring, so they run
// on every 64th append.
func TestStoreConcurrentAppend(t *testing.T) {
	s := NewStore()
	t0 := time.Unix(1000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("src%d/counter/c", g)
			for i := 0; i < rawCap+100; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				s.Append(own, at, float64(i))
				s.Append("shared", at, float64(g))
				if i%64 == 0 {
					s.Series(own)
					s.Latest("shared")
					s.Keys()
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		pts := s.Series(fmt.Sprintf("src%d/counter/c", g))
		if len(pts) != rawCap || pts[rawCap-1].Value != rawCap+99 {
			t.Fatalf("writer %d: %d points, newest %v", g, len(pts), pts[len(pts)-1])
		}
	}
	if n := s.Len("shared"); n != rawCap {
		t.Fatalf("shared key kept %d points, want %d", n, rawCap)
	}
}
