package agent

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"testing"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// refKey and refAccumulator are the map-keyed accumulator the slots replaced,
// kept as the oracle: one sketch per key, found by hashing the key per probe.
type refKey struct {
	dst        netip.Addr
	dstPort    uint16
	class      probe.Class
	proto      probe.Proto
	qos        probe.QoS
	payloadLen int
	win        int64
}

type refAccumulator map[refKey]*probe.PeerSketch

func (m refAccumulator) observe(r *probe.Record) {
	k := refKey{r.Dst, r.DstPort, r.Class, r.Proto, r.QoS, r.PayloadLen, probe.WindowIndex(r.Start, probe.Window)}
	sk := m[k]
	if sk == nil {
		sk = &probe.PeerSketch{Src: agentAddr, Dst: r.Dst, DstPort: r.DstPort, Class: r.Class, Proto: r.Proto,
			QoS: r.QoS, PayloadLen: r.PayloadLen, MinStart: r.Start, MaxStart: r.Start, RTT: metrics.NewLatencyHistogram()}
		m[k] = sk
	}
	sk.RTT.Observe(r.RTT)
	if r.PayloadRTT > 0 {
		if sk.Payload == nil {
			sk.Payload = metrics.NewLatencyHistogram()
		}
		sk.Payload.Observe(r.PayloadRTT)
	}
	if r.Start.Before(sk.MinStart) {
		sk.MinStart = r.Start
	}
	if r.Start.After(sk.MaxStart) {
		sk.MaxStart = r.Start
	}
}

func (m refAccumulator) cutBefore(win int64) map[refKey]*probe.PeerSketch {
	out := map[refKey]*probe.PeerSketch{}
	for k, sk := range m {
		if k.win < win {
			out[k] = sk
			delete(m, k)
		}
	}
	return out
}

// sketchPeers is the peer set of the accumulator tests: eight servers, the
// first probed on two ports, every third peer with a payload echo.
func sketchPeers() []probe.Record {
	var peers []probe.Record
	for i := 0; i < 8; i++ {
		p := probe.Record{Src: agentAddr, Dst: netip.AddrFrom4([4]byte{10, 0, 1, byte(i)}), DstPort: 8765,
			Class: probe.Class(i % 3), Proto: probe.Proto(i % 2), QoS: probe.QoS(i % 2)}
		if i%3 == 2 {
			p.PayloadLen = 1000
		}
		peers = append(peers, p)
	}
	second := peers[0]
	second.DstPort = 8766
	return append(peers, second)
}

// sketchStream returns every peer's probes at the given period over
// [from, to), in peer runs, in the agent's round-robin, or shuffled.
func sketchStream(rng *rand.Rand, order string, from, to time.Time, every time.Duration) []probe.Record {
	peers := sketchPeers()
	var recs []probe.Record
	emit := func(p int, t time.Time) {
		r := peers[p]
		r.Start = t.Add(time.Duration(p) * time.Millisecond)
		r.RTT = time.Duration(100+rng.Intn(5000)) * time.Microsecond
		if r.PayloadLen > 0 && rng.Intn(4) > 0 {
			r.PayloadRTT = r.RTT + time.Duration(rng.Intn(900))*time.Microsecond
		}
		recs = append(recs, r)
	}
	if order == "runs" {
		for p := range peers {
			for t := from; t.Before(to); t = t.Add(every) {
				emit(p, t)
			}
		}
		return recs
	}
	for t := from; t.Before(to); t = t.Add(every) {
		for p := range peers {
			emit(p, t)
		}
	}
	if order == "shuffled" {
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	}
	return recs
}

var sketchOrders = []string{"runs", "roundrobin", "shuffled"}

// diffCut fails unless the accumulator's cut holds exactly the reference's
// sketches: the same set, each with the same time range, counts, sum, min,
// max and buckets, and the same encoded size.
func diffCut(t *testing.T, got []probe.PeerSketch, want map[refKey]*probe.PeerSketch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("cut %d sketches, reference cut %d", len(got), len(want))
	}
	var wantSks []probe.PeerSketch
	for i := range got {
		g := &got[i]
		k := refKey{g.Dst, g.DstPort, g.Class, g.Proto, g.QoS, g.PayloadLen, probe.WindowIndex(g.MinStart, probe.Window)}
		w := want[k]
		if w == nil {
			t.Fatalf("sketch %+v is not in the reference (or was cut twice)", k)
		}
		delete(want, k)
		wantSks = append(wantSks, *w)
		if g.Src != w.Src || !g.MinStart.Equal(w.MinStart) || !g.MaxStart.Equal(w.MaxStart) {
			t.Fatalf("%+v: src/range %v [%v, %v], want %v [%v, %v]", k, g.Src, g.MinStart, g.MaxStart, w.Src, w.MinStart, w.MaxStart)
		}
		for _, h := range [][2]*metrics.Histogram{{g.RTT, w.RTT}, {g.Payload, w.Payload}} {
			if (h[0] == nil) != (h[1] == nil) {
				t.Fatalf("%+v: payload histogram present %v, want %v", k, h[0] != nil, h[1] != nil)
			}
			if h[0] == nil {
				continue
			}
			if h[0].Count() != h[1].Count() || h[0].Sum() != h[1].Sum() || h[0].Min() != h[1].Min() || h[0].Max() != h[1].Max() {
				t.Fatalf("%+v: tallies %v, want %v", k, h[0].Summarize(), h[1].Summarize())
			}
			if !bytes.Equal(h[0].AppendRuns(nil), h[1].AppendRuns(nil)) {
				t.Fatalf("%+v: buckets diverged", k)
			}
		}
	}
	if g, w := len(probe.AppendBinaryBatch(nil, nil, got)), len(probe.AppendBinaryBatch(nil, nil, wantSks)); g != w {
		t.Fatalf("batch encodes to %d bytes, reference to %d", g, w)
	}
}

// TestSketchAccumulatorMatchesReference feeds the slot accumulator and the
// map-keyed one it replaced the same streams — probes straddling a window
// boundary, then late probes for the window already cut — and requires the
// same cuts, whatever order the probes arrive in.
func TestSketchAccumulatorMatchesReference(t *testing.T) {
	boundary := epoch.Truncate(probe.Window).Add(probe.Window)
	for _, order := range sketchOrders {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			acc, ref := NewSketchAccumulator(agentAddr, probe.Window), refAccumulator{}
			feed := func(recs []probe.Record) {
				for i := range recs {
					acc.Observe(&recs[i])
					ref.observe(&recs[i])
				}
			}
			feed(sketchStream(rng, order, boundary.Add(-3*time.Minute), boundary.Add(4*time.Minute), 20*time.Second))
			if len(acc.slots) != len(ref) || len(acc.slots) != 2*len(sketchPeers()) {
				t.Fatalf("%s/%d: %d open sketches, reference %d, want two windows of %d peers", order, seed, len(acc.slots), len(ref), len(sketchPeers()))
			}
			win := acc.WindowIndex(boundary)
			sks := acc.CutBefore(win, nil)
			diffCut(t, sks, ref.cutBefore(win))
			acc.Release(sks)
			if sks[0].RTT != nil || len(acc.slots) != len(sketchPeers()) {
				t.Fatalf("%s/%d: after the cut %d sketches open, released entry %+v", order, seed, len(acc.slots), sks[0])
			}
			// Late probes for the window just cut open fresh sketches of it.
			feed(sketchStream(rng, order, boundary.Add(-time.Minute), boundary.Add(time.Minute), 15*time.Second))
			// The shutdown path: everything goes, open windows included.
			sks = acc.CutBefore(math.MaxInt64, sks[:0])
			diffCut(t, sks, ref.cutBefore(math.MaxInt64))
			acc.Release(sks)
			if len(acc.slots) != 0 || len(acc.index) != 0 {
				t.Fatalf("%s/%d: %d slots and %d index entries left after the final cut", order, seed, len(acc.slots), len(acc.index))
			}
		}
	}
}

// TestObserveZeroAlloc: once the peer set has been seen, a window of probes —
// opening its sketches, rolling the window, cutting and releasing — allocates
// nothing, in any arrival order.
func TestObserveZeroAlloc(t *testing.T) {
	peers := len(sketchPeers())
	for _, order := range sketchOrders {
		acc := NewSketchAccumulator(agentAddr, probe.Window)
		from := epoch.Truncate(probe.Window)
		recs := sketchStream(rand.New(rand.NewSource(1)), order, from, from.Add(probe.Window), 30*time.Second)
		var sks []probe.PeerSketch
		window := func() {
			for i := range recs {
				acc.Observe(&recs[i])
				recs[i].Start = recs[i].Start.Add(probe.Window)
			}
			sks = acc.CutBefore(acc.WindowIndex(recs[0].Start), sks[:0])
			if len(sks) != peers {
				t.Fatalf("%s: cut %d sketches, want %d", order, len(sks), peers)
			}
			acc.Release(sks)
		}
		for i := 0; i < 3; i++ {
			window() // warm the slots, the index, sks and every freelisted histogram's buckets
		}
		if allocs := testing.AllocsPerRun(3, window); allocs != 0 {
			t.Errorf("%s: a window of %d probes allocated %.1f times", order, len(recs), allocs)
		}
	}
}

// goldenStream is one window of probes built by arithmetic alone, so that the
// golden batch depends on nothing but this file.
func goldenStream() []probe.Record {
	peers := sketchPeers()
	from := epoch.Truncate(probe.Window)
	var recs []probe.Record
	for i := 0; i < 40; i++ {
		for p := range peers {
			r := peers[p]
			r.Start = from.Add(time.Duration(i)*15*time.Second + time.Duration(p)*time.Millisecond)
			r.RTT = time.Duration(150+(i*7919+p*104729)%4000) * time.Microsecond
			if r.PayloadLen > 0 {
				r.PayloadRTT = r.RTT + 300*time.Microsecond
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// TestSketchBatchIsDeterministic: an upload's bytes are a function of the
// probe stream — two accumulators fed the same window encode byte-identical
// batches, and those bytes are the committed golden. (Ranging over a map to
// cut made every run's batch a different permutation.)
func TestSketchBatchIsDeterministic(t *testing.T) {
	encode := func() []byte {
		acc := NewSketchAccumulator(agentAddr, probe.Window)
		recs := goldenStream()
		for i := range recs {
			acc.Observe(&recs[i])
		}
		return probe.AppendBinaryBatch(nil, nil, acc.CutBefore(math.MaxInt64, nil))
	}
	got := encode()
	if !bytes.Equal(got, encode()) {
		t.Fatal("two accumulators fed the same stream encoded different batches")
	}
	const path = "testdata/sketch_window.pmb1"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch of %d bytes differs from %s (%d bytes); -update rewrites it", len(got), path, len(want))
	}
}

// BenchmarkSketchObserve times the accumulator over whole windows — observe
// every probe, cut, release — in the three arrival orders: peer runs (the
// simulated fleet and bench/), round-robin (the agent's scheduler) and
// shuffled (every probe a miss: the index-map path).
func BenchmarkSketchObserve(b *testing.B) {
	const peers, perPeer = 48, 60
	base := make([]probe.Record, peers)
	for p := range base {
		base[p] = probe.Record{Src: agentAddr, Dst: netip.AddrFrom4([4]byte{10, 1, byte(p >> 8), byte(p)}), DstPort: 8765,
			Class: probe.Class(p % 3), RTT: time.Duration(200+p) * time.Microsecond}
	}
	from := epoch.Truncate(probe.Window)
	for _, order := range sketchOrders {
		b.Run(order, func(b *testing.B) {
			var recs []probe.Record
			for i := 0; i < peers*perPeer; i++ {
				p, n := i/perPeer, i%perPeer
				if order != "runs" {
					p, n = i%peers, i/peers
				}
				r := base[p]
				r.Start = from.Add(time.Duration(n) * probe.Window / perPeer)
				recs = append(recs, r)
			}
			if order == "shuffled" {
				rand.New(rand.NewSource(1)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
			}
			acc := NewSketchAccumulator(agentAddr, probe.Window)
			var sks []probe.PeerSketch
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				shift := time.Duration(it) * probe.Window
				for i := range recs {
					r := recs[i]
					r.Start = r.Start.Add(shift)
					acc.Observe(&r)
				}
				sks = acc.CutBefore(math.MaxInt64, sks[:0])
				acc.Release(sks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/probe")
		})
	}
}
