package telemetry

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pingmesh/internal/metrics"
)

// BenchmarkEncode measures the steady-state PMT1 encode cost for the
// realistic agent registry: counters bumped, a fresh RTT observed, one
// report built. Must report 0 B/op.
func BenchmarkEncode(b *testing.B) {
	reg, enc, col := telemetryFixture()
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		data, seq := enc.Encode(now.UnixNano())
		if _, err := col.Ingest(data, now); err != nil {
			b.Fatal(err)
		}
		enc.Ack(seq)
		now = now.Add(5 * time.Minute)
	}
	h := reg.Histogram("agent.probe_rtt")
	cnt := reg.Counter("agent.probes_sent")
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt.Add(3)
		h.Observe(2 * time.Millisecond)
		data, seq := enc.Encode(now.UnixNano())
		bytes += int64(len(data))
		enc.Ack(seq)
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkIngest measures the steady-state collector fold for one small
// agent: parse, dedup check, counter/gauge/histogram fold into its leaf.
// Must report 0 B/op.
func BenchmarkIngest(b *testing.B) {
	reg, enc, col := telemetryFixture()
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		data, seq := enc.Encode(now.UnixNano())
		if _, err := col.Ingest(data, now); err != nil {
			b.Fatal(err)
		}
		enc.Ack(seq)
		now = now.Add(5 * time.Minute)
	}
	h := reg.Histogram("agent.probe_rtt")
	cnt := reg.Counter("agent.probes_sent")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt.Add(3)
		h.Observe(2 * time.Millisecond)
		data, _ := enc.Encode(now.UnixNano())
		res, err := col.Ingest(data, now)
		if err != nil {
			b.Fatal(err)
		}
		enc.Ack(res.Ack)
	}
}

// Fleet shape of the pipeline benchmark's fleet_churn workload.
const (
	fleetAgents = 12000
	fleetPods   = 100
	fleetRounds = 5
)

// fleetReport locates one prebuilt report in fleetReports.buf.
type fleetReport struct{ off, end int }

// fleetReports holds every report of the benchmark fleet, [round][agent],
// built once per process: up to 6 counters and 2 gauges and 3 histograms of
// 32 fresh observations each, round r shipped as seq r+1 on base r — so the
// five rounds can be replayed in a loop, round 0 being self-contained. A
// counter or gauge whose delta is zero is left out, as the Encoder leaves
// it out, so reports of one pod differ in which metrics they carry.
var fleetReports struct {
	once sync.Once
	buf  []byte
	at   [fleetRounds][fleetAgents]fleetReport
}

func buildFleetReports() {
	f := &fleetReports
	counters := [6]string{"agent.probes_sent", "agent.probes_failed", "agent.uploads_ok",
		"agent.upload_bytes", "agent.fetch_ok", "agent.fetch_delta"}
	gauges := [2]string{"agent.peers", "agent.buffered_records"}
	hists := [3]string{"agent.rtt.intra-pod", "agent.rtt.intra-dc", "agent.rtt.inter-dc"}
	next := xorshift(0x9E3779B97F4A7C15)
	var b ReportBuilder
	h := metrics.NewLatencyHistogram()
	for round := 0; round < fleetRounds; round++ {
		for a := 0; a < fleetAgents; a++ {
			pod := a % fleetPods
			scope := fmt.Sprintf("d%d.s%d.p%d", pod/50, pod/5%10, pod%5)
			b.Begin(fmt.Sprintf("srv-%05d", a), scope, uint64(round+1), uint64(round), int64(round))
			for i, name := range counters {
				if v := next() % uint64(2<<i); v != 0 {
					b.Counter(name, v)
				}
			}
			for _, name := range gauges {
				if v := int64(next()%21) - 10; v != 0 {
					b.Gauge(name, v)
				}
			}
			for i, base := range [3]uint64{150_000, 250_000, 30_000_000} {
				h.Reset()
				for o := 0; o < 32; o++ {
					v := base + next()%base
					if next()%100 == 0 {
						v += next() % 5_000_000 // congestion tail
					}
					h.Observe(time.Duration(v))
				}
				appendHist(&b, hists[i], h)
			}
			off := len(f.buf)
			f.buf = append(f.buf, b.Finish()...)
			f.at[round][a] = fleetReport{off, len(f.buf)}
		}
	}
}

// BenchmarkIngestFleet measures collector ingest as the fleet drives it:
// every agent of a 12 000-agent, 100-pod fleet reporting round after round,
// from as many goroutines as there are cores, each owning a share of the
// agents (an agent's reports must arrive in order). ns/report is wall time
// per report across all goroutines, so it falls as cores are added unless
// something serialises them; steady state allocates nothing.
func BenchmarkIngestFleet(b *testing.B) {
	f := &fleetReports
	f.once.Do(buildFleetReports)
	col := NewCollector(CollectorConfig{})
	now := time.Unix(1000, 0)
	// Round 0 registers every agent, scope and metric.
	for a := 0; a < fleetAgents; a++ {
		r := f.at[0][a]
		if _, err := col.Ingest(f.buf[r.off:r.end], now); err != nil {
			b.Fatal(err)
		}
	}
	lanes := runtime.GOMAXPROCS(0)
	var lane, failed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		first := int(lane.Add(1) - 1)
		round, a := 1, first
		for pb.Next() {
			r := f.at[round][a]
			res, err := col.Ingest(f.buf[r.off:r.end], now)
			if err != nil || res.Resync || res.Duplicate {
				failed.Add(1)
			}
			if a += lanes; a >= fleetAgents {
				round, a = (round+1)%fleetRounds, first
			}
		}
	})
	b.StopTimer()
	if n := failed.Load(); n != 0 {
		b.Fatalf("%d reports were not folded", n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/report")
}
