package telemetry

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pingmesh/internal/metrics"
)

// FuzzPMT1RoundTrip fuzzes the codec from both ends. The raw input is fed
// straight to the parser (must never panic, must never accept trailing
// garbage); then the same bytes are interpreted as a script that drives
// the builder, and the built report must parse back field-for-field.
func FuzzPMT1RoundTrip(f *testing.F) {
	var b ReportBuilder
	b.Begin("srv042", "d1.s2.p3", 9, 8, 1234)
	b.Counter("agent.probes_sent", 77)
	b.Gauge("agent.peers", -3)
	b.BeginHist("agent.probe_rtt", 500, 10, 300)
	b.Bucket(2, 4)
	b.Bucket(7, 1)
	b.EndHist()
	f.Add(append([]byte(nil), b.Finish()...))
	f.Add([]byte("PMT1"))
	f.Add([]byte{})
	f.Add([]byte("PMT1\x00\x00"))
	f.Add(badRunsReport(metrics.Bucket{Index: 5, Count: 1}, metrics.Bucket{Index: 4, Count: 1})) // gap 2^64−1

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes must not panic the parser, and a
		// report the parser accepts must have been fully consumed.
		var p Parser
		if err := p.Reset(data); err == nil {
			for {
				if _, _, ok := p.NextCounter(); !ok {
					break
				}
			}
			for {
				if _, _, ok := p.NextGauge(); !ok {
					break
				}
			}
			hist := metrics.NewLatencyHistogram()
			for {
				_, hd, _, ok := p.NextHist(nil)
				if !ok {
					break
				}
				hd.AddTo(hist) // folding validated runs must not panic
			}
		}

		// Direction 2: derive a structured report from the fuzz bytes,
		// build it, and require an exact parse-back.
		r := scriptReader{d: data}
		var bld ReportBuilder
		src := r.str(8)
		scope := r.str(16)
		seq, base := r.u64()%1000+1, r.u64()%1000
		now := int64(r.u64())
		bld.Begin(src, scope, seq, base, now)

		type kv struct {
			name string
			u    uint64
			s    int64
		}
		var counters, gauges []kv
		nc := int(r.u64() % 5)
		prev := ""
		for i := 0; i < nc; i++ {
			name := prev + r.str(6) // nondecreasing-ish, may collide
			if name == prev {
				continue
			}
			prev = name
			v := r.u64() % maxWireCount
			counters = append(counters, kv{name: name, u: v})
			bld.Counter(name, v)
		}
		ng := int(r.u64() % 5)
		prev = ""
		for i := 0; i < ng; i++ {
			name := prev + r.str(6)
			if name == prev {
				continue
			}
			prev = name
			v := int64(r.u64()) % (1 << 40)
			gauges = append(gauges, kv{name: name, s: v})
			bld.Gauge(name, v)
		}
		type hrec struct {
			name    string
			sum     int64
			min     int64
			max     int64
			buckets []metrics.Bucket
		}
		var hists []hrec
		nh := int(r.u64() % 3)
		prev = ""
		for i := 0; i < nh; i++ {
			name := prev + r.str(6)
			if name == prev {
				continue
			}
			prev = name
			h := hrec{name: name, sum: int64(r.u64() % (1 << 40))}
			h.min = int64(r.u64() % 1000)
			h.max = h.min + int64(r.u64()%100000)
			idx := int(r.u64() % 8)
			nb := int(r.u64()%4) + 1
			for j := 0; j < nb && idx < metrics.LatencyBucketCount(); j++ {
				cnt := r.u64()%100 + 1
				h.buckets = append(h.buckets, metrics.Bucket{Index: idx, Count: cnt})
				idx += int(r.u64()%16) + 1
			}
			hists = append(hists, h)
			bld.BeginHist(h.name, h.sum, h.min, h.max)
			for _, bk := range h.buckets {
				bld.Bucket(bk.Index, bk.Count)
			}
			bld.EndHist()
		}
		built := bld.Finish()

		if err := p.Reset(built); err != nil {
			t.Fatalf("built report rejected: %v", err)
		}
		if string(p.Src()) != src || string(p.Scope()) != scope ||
			p.Seq() != seq || p.Base() != base || p.NowNS() != now {
			t.Fatalf("header mismatch: %q %q %d %d %d", p.Src(), p.Scope(), p.Seq(), p.Base(), p.NowNS())
		}
		for _, want := range counters {
			name, delta, ok := p.NextCounter()
			if !ok || string(name) != want.name || delta != want.u {
				t.Fatalf("counter: got %q %d %v want %q %d", name, delta, ok, want.name, want.u)
			}
		}
		if _, _, ok := p.NextCounter(); ok {
			t.Fatal("extra counter")
		}
		for _, want := range gauges {
			name, delta, ok := p.NextGauge()
			if !ok || string(name) != want.name || delta != want.s {
				t.Fatalf("gauge: got %q %d %v want %q %d", name, delta, ok, want.name, want.s)
			}
		}
		if _, _, ok := p.NextGauge(); ok {
			t.Fatal("extra gauge")
		}
		for _, want := range hists {
			name, hd, _, ok := p.NextHist(nil)
			if !ok || string(name) != want.name {
				t.Fatalf("hist: got %q %v want %q", name, ok, want.name)
			}
			if hd.Sum != want.sum || hd.Min != want.min || hd.Max != want.max {
				t.Fatalf("hist tallies: got %d %d %d want %d %d %d",
					hd.Sum, hd.Min, hd.Max, want.sum, want.min, want.max)
			}
			it := hd.Buckets()
			for _, wb := range want.buckets {
				gb, gok := it.Next()
				if !gok || gb != wb {
					t.Fatalf("hist bucket: got %v %v want %v", gb, gok, wb)
				}
			}
			if _, gok := it.Next(); gok {
				t.Fatal("extra bucket")
			}
		}
		if _, _, _, ok := p.NextHist(nil); ok {
			t.Fatal("extra hist")
		}
		if err := p.Err(); err != nil {
			t.Fatalf("Err after full drain: %v", err)
		}
	})
}

// scriptReader turns fuzz bytes into a deterministic value stream.
type scriptReader struct {
	d   []byte
	off int
}

func (r *scriptReader) u64() uint64 {
	if r.off >= len(r.d) {
		r.off++
		return uint64(r.off) * 0x9E3779B97F4A7C15 >> 16
	}
	var buf [8]byte
	n := copy(buf[:], r.d[r.off:])
	r.off += n
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *scriptReader) str(maxLen int) string {
	n := int(r.u64()%uint64(maxLen)) + 1
	var sb bytes.Buffer
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + r.u64()%26))
	}
	return sb.String()
}
