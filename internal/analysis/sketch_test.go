package analysis

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
)

// decodeOneSketch encodes sk and decodes it back through the Scanner,
// returning the wire-form sketch.
func decodeOneSketch(t testing.TB, sk probe.PeerSketch) probe.Sketch {
	t.Helper()
	data := probe.AppendBinaryBatch(nil, nil, []probe.PeerSketch{sk})
	var sc probe.Scanner
	sc.Reset(data)
	if k := sc.ScanEntry(); k != probe.EntrySketch {
		t.Fatalf("expected a sketch entry, got kind %d (rowErr %v)", k, sc.RowErr())
	}
	got := *sc.Sketch()
	got.RTT, got.Payload = got.RTT.Clone(), got.Payload.Clone()
	return got
}

// FuzzSketchMergeVsExact pins the sketch aggregation path to the exact
// one: for any set of successful, non-anomalous probes (the only probes
// the agent sketches — failures, retransmit signatures and over-threshold
// RTTs ship raw), folding the encoded+decoded per-peer sketch into a
// LatencyStats must equal Add-ing every record, exactly — same counts,
// same drop rate, same percentile summaries. Tier-4 target.
func FuzzSketchMergeVsExact(f *testing.F) {
	f.Add(int64(1), uint16(1))
	f.Add(int64(2), uint16(100))
	f.Add(int64(3), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%4096) + 1
		sk := probe.PeerSketch{
			Src:     netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			Dst:     netip.AddrFrom4([4]byte{10, 0, 0, 2}),
			DstPort: 80,
			RTT:     metrics.NewLatencyHistogram(),
			Payload: metrics.NewLatencyHistogram(),
		}
		exact := NewLatencyStats()
		for i := 0; i < count; i++ {
			r := probe.Record{
				Start: at.Add(time.Duration(rng.Int63n(int64(10 * time.Minute)))),
				Src:   sk.Src, Dst: sk.Dst, DstPort: sk.DstPort,
				// Below the one-retransmit band: the agent never sketches
				// an anomalous RTT.
				RTT: time.Duration(rng.Int63n(int64(2 * time.Second))),
			}
			if rng.Intn(3) == 0 {
				r.PayloadRTT = time.Duration(rng.Int63n(int64(time.Second))) + 1
			}
			exact.Add(&r)
			sk.RTT.Observe(r.RTT)
			if r.PayloadRTT > 0 {
				sk.Payload.Observe(r.PayloadRTT)
			}
			if sk.MinStart.IsZero() || r.Start.Before(sk.MinStart) {
				sk.MinStart = r.Start
			}
			if r.Start.After(sk.MaxStart) {
				sk.MaxStart = r.Start
			}
		}

		wire := decodeOneSketch(t, sk)
		got := NewLatencyStats()
		got.AddSketch(&wire)

		if got.Total() != exact.Total() || got.Success() != exact.Success() || got.Failed() != exact.Failed() {
			t.Fatalf("counts diverged: got %d/%d/%d want %d/%d/%d",
				got.Total(), got.Success(), got.Failed(),
				exact.Total(), exact.Success(), exact.Failed())
		}
		if got.DropRate() != exact.DropRate() {
			t.Fatalf("drop rate diverged: %v vs %v", got.DropRate(), exact.DropRate())
		}
		if got.Summary() != exact.Summary() {
			t.Fatalf("rtt summary diverged:\ngot  %v\nwant %v", got.Summary(), exact.Summary())
		}
		if got.PayloadSummary() != exact.PayloadSummary() {
			t.Fatalf("payload summary diverged:\ngot  %v\nwant %v", got.PayloadSummary(), exact.PayloadSummary())
		}
	})
}

// TestAddSketchMergesWithRaw: a stats aggregate mixing sketches and raw
// anomalous records equals the all-raw aggregate over the union.
func TestAddSketchMergesWithRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sk := probe.PeerSketch{
		Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		Dst: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		RTT: metrics.NewLatencyHistogram(),
	}
	exact := NewLatencyStats()
	for i := 0; i < 500; i++ {
		r := probe.Record{Start: at, Src: sk.Src, Dst: sk.Dst,
			RTT: time.Duration(rng.Int63n(int64(time.Second)))}
		exact.Add(&r)
		sk.RTT.Observe(r.RTT)
		if sk.MinStart.IsZero() {
			sk.MinStart = r.Start
		}
		sk.MaxStart = r.Start
	}
	anomalous := []probe.Record{
		{Start: at, Src: sk.Src, Dst: sk.Dst, RTT: 3 * time.Second},                          // drop signature 1
		{Start: at, Src: sk.Src, Dst: sk.Dst, RTT: 9 * time.Second},                          // drop signature 2
		{Start: at, Src: sk.Src, Dst: sk.Dst, RTT: 21 * time.Second, Err: "connect timeout"}, // failure
	}
	mixed := NewLatencyStats()
	wire := decodeOneSketch(t, sk)
	mixed.AddSketch(&wire)
	for i := range anomalous {
		exact.Add(&anomalous[i])
		mixed.Add(&anomalous[i])
	}
	if mixed.Total() != exact.Total() || mixed.Failed() != exact.Failed() ||
		mixed.DropRate() != exact.DropRate() || mixed.Summary() != exact.Summary() {
		t.Fatalf("mixed aggregate diverged from exact:\ngot  %v (drop %v)\nwant %v (drop %v)",
			mixed.Summary(), mixed.DropRate(), exact.Summary(), exact.DropRate())
	}
}
