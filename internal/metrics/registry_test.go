package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Counter = %d, want 8000", c.Value())
	}
	c.Add(5)
	if c.Value() != 8005 {
		t.Fatalf("Counter = %d, want 8005", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("Gauge = %d", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("Gauge = %d", g.Value())
	}
	if got := g.Add(3); got != 2 || g.Value() != 2 {
		t.Fatalf("Gauge after Add(3) = %d (returned %d)", g.Value(), got)
	}
}

func TestLockedHistogramConcurrent(t *testing.T) {
	lh := NewLockedLatencyHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				lh.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := lh.Snapshot().Count(); got != 2000 {
		t.Fatalf("Count = %d, want 2000", got)
	}
}

func TestRegistrySameInstance(t *testing.T) {
	r := NewRegistry()
	if r.Counter("probes") != r.Counter("probes") {
		t.Fatal("Counter returned different instances for same name")
	}
	if r.Gauge("peers") != r.Gauge("peers") {
		t.Fatal("Gauge returned different instances for same name")
	}
	if r.Histogram("rtt") != r.Histogram("rtt") {
		t.Fatal("Histogram returned different instances for same name")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("probes.total").Add(10)
	r.Gauge("peers").Set(2500)
	r.Histogram("rtt").Observe(300 * time.Microsecond)
	s := r.Snapshot()
	if s.Counters["probes.total"] != 10 {
		t.Fatalf("snapshot counter = %d", s.Counters["probes.total"])
	}
	if s.Gauges["peers"] != 2500 {
		t.Fatalf("snapshot gauge = %d", s.Gauges["peers"])
	}
	if s.Histograms["rtt"].Count != 1 {
		t.Fatalf("snapshot histogram count = %d", s.Histograms["rtt"].Count)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Gauge("a")
	r.Histogram("m")
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("Names = %v", names)
	}
}
