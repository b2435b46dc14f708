package telemetry

import (
	"bytes"
	"testing"

	"pingmesh/internal/metrics"
)

// drain parses every entry of a report into plain maps for assertions.
type drained struct {
	src, scope string
	seq, base  uint64
	nowNS      int64
	counters   map[string]uint64
	gauges     map[string]int64
	hists      map[string][]metrics.Bucket
	tallies    map[string][3]int64 // sumDelta, cumMin, cumMax
}

func drainReport(t *testing.T, data []byte) drained {
	t.Helper()
	var p Parser
	if err := p.Reset(data); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	d := drained{
		src: string(p.Src()), scope: string(p.Scope()),
		seq: p.Seq(), base: p.Base(), nowNS: p.NowNS(),
		counters: map[string]uint64{}, gauges: map[string]int64{},
		hists: map[string][]metrics.Bucket{}, tallies: map[string][3]int64{},
	}
	for {
		name, delta, ok := p.NextCounter()
		if !ok {
			break
		}
		d.counters[string(name)] = delta
	}
	for {
		name, delta, ok := p.NextGauge()
		if !ok {
			break
		}
		d.gauges[string(name)] = delta
	}
	for {
		name, hd, _, ok := p.NextHist(nil)
		if !ok {
			break
		}
		var bs []metrics.Bucket
		it := hd.Buckets()
		for {
			b, bok := it.Next()
			if !bok {
				break
			}
			bs = append(bs, b)
		}
		d.hists[string(name)] = bs
		d.tallies[string(name)] = [3]int64{hd.Sum, hd.Min, hd.Max}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	return d
}

func TestWireRoundTrip(t *testing.T) {
	var b ReportBuilder
	b.Begin("srv042.d1", "d1.s2.p3", 7, 6, 123456789)
	b.Counter("agent.probes_sent", 5000)
	b.Counter("agent.uploads_ok", 3)
	b.Gauge("agent.peers", -2)
	b.Gauge("agent.queue_depth", 17)
	b.BeginHist("agent.probe_rtt", 987654, 100, 90000)
	b.Bucket(3, 10)
	b.Bucket(4, 2)
	b.Bucket(40, 1)
	b.EndHist()
	b.BeginHist("agent.upload_dur", 55, 55, 55)
	b.Bucket(0, 1)
	b.EndHist()
	data := b.Finish()

	d := drainReport(t, data)
	if d.src != "srv042.d1" || d.scope != "d1.s2.p3" {
		t.Fatalf("identity mismatch: %q %q", d.src, d.scope)
	}
	if d.seq != 7 || d.base != 6 || d.nowNS != 123456789 {
		t.Fatalf("header mismatch: seq=%d base=%d now=%d", d.seq, d.base, d.nowNS)
	}
	if d.counters["agent.probes_sent"] != 5000 || d.counters["agent.uploads_ok"] != 3 {
		t.Fatalf("counters: %v", d.counters)
	}
	if d.gauges["agent.peers"] != -2 || d.gauges["agent.queue_depth"] != 17 {
		t.Fatalf("gauges: %v", d.gauges)
	}
	want := []metrics.Bucket{{Index: 3, Count: 10}, {Index: 4, Count: 2}, {Index: 40, Count: 1}}
	got := d.hists["agent.probe_rtt"]
	if len(got) != len(want) {
		t.Fatalf("rtt buckets: got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rtt bucket %d: got %v want %v", i, got[i], want[i])
		}
	}
	if tl := d.tallies["agent.probe_rtt"]; tl != [3]int64{987654, 100, 90000} {
		t.Fatalf("rtt tallies: %v", tl)
	}
	if tl := d.tallies["agent.upload_dur"]; tl != [3]int64{55, 55, 55} {
		t.Fatalf("upload tallies: %v", tl)
	}
}

func TestWireEmptyReport(t *testing.T) {
	var b ReportBuilder
	b.Begin("a", "", 1, 0, 0)
	d := drainReport(t, b.Finish())
	if len(d.counters)+len(d.gauges)+len(d.hists) != 0 {
		t.Fatalf("empty report decoded entries: %+v", d)
	}
}

func TestWireEmptyHistEntry(t *testing.T) {
	var b ReportBuilder
	b.Begin("a", "", 1, 0, 0)
	b.BeginHist("h", 10, 1, 2)
	b.EndHist() // no buckets: tallies dropped, nRuns=0
	d := drainReport(t, b.Finish())
	if bs, ok := d.hists["h"]; !ok || len(bs) != 0 {
		t.Fatalf("empty hist entry: %v ok=%v", bs, ok)
	}
	if tl := d.tallies["h"]; tl != [3]int64{} {
		t.Fatalf("empty hist entry kept tallies: %v", tl)
	}
}

// TestWireBuilderReuse checks that back-to-back reports from one builder
// are byte-identical to reports from fresh builders (buffer reuse leaks
// no state).
func TestWireBuilderReuse(t *testing.T) {
	build := func(b *ReportBuilder, seq uint64) []byte {
		b.Begin("agent-1", "d0.s0.p0", seq, seq-1, int64(seq)*1000)
		b.Counter("c.one", seq)
		b.Gauge("g.one", -int64(seq))
		b.BeginHist("h.one", int64(seq), 1, int64(seq))
		b.Bucket(2, seq)
		b.EndHist()
		return b.Finish()
	}
	var reused ReportBuilder
	for seq := uint64(1); seq <= 4; seq++ {
		var fresh ReportBuilder
		got := append([]byte(nil), build(&reused, seq)...)
		want := build(&fresh, seq)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: reused builder diverged\n got %x\nwant %x", seq, got, want)
		}
	}
}

func TestWireFrontCodingCompresses(t *testing.T) {
	// Same name lengths, but the shared set front-codes its common prefix:
	// its report must be strictly smaller than the disjoint set's.
	encode := func(names []string) int {
		var b ReportBuilder
		b.Begin("a", "", 1, 0, 0)
		for _, n := range names {
			b.Counter(n, 1)
		}
		return len(b.Finish())
	}
	shared := encode([]string{"agent.probe.errors", "agent.probe.sent00", "agent.probe.timeou"})
	disjoint := encode([]string{"agent.probe.errors", "bgent.probe.sent00", "cgent.probe.timeou"})
	if shared >= disjoint {
		t.Fatalf("front coding saved nothing: shared=%d disjoint=%d", shared, disjoint)
	}
}

func TestWireCorruptInputs(t *testing.T) {
	var b ReportBuilder
	b.Begin("src", "scope", 9, 8, 42)
	b.Counter("c", 1)
	b.BeginHist("h", 5, 5, 5)
	b.Bucket(1, 1)
	b.EndHist()
	good := append([]byte(nil), b.Finish()...)

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("PMT9"), good[4:]...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0),
		"payload len": append([]byte("PMT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), good[5:]...),
	}
	for name, data := range cases {
		var p Parser
		err := p.Reset(data)
		// Reset may succeed on some mutations; the drain must then fail.
		if err == nil {
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
			for {
				if _, _, _, ok := p.NextHist(nil); !ok {
					break
				}
			}
			err = p.Err()
		}
		if err == nil {
			t.Errorf("%s: corrupt report accepted", name)
		}
	}
}

func TestWireSectionOrderEnforced(t *testing.T) {
	var b ReportBuilder
	b.Begin("s", "", 1, 0, 0)
	b.Counter("c", 1)
	data := b.Finish()
	var p Parser
	if err := p.Reset(data); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p.NextGauge(); ok {
		t.Fatal("NextGauge succeeded before counters drained")
	}
	if p.Err() == nil {
		t.Fatal("out-of-order section read did not set Err")
	}
}

// badRunsReport builds a report whose one histogram carries the given
// buckets as the builder was handed them, in order or not.
func badRunsReport(buckets ...metrics.Bucket) []byte {
	var b ReportBuilder
	b.Begin("s", "", 1, 0, 0)
	b.BeginHist("h", 2, 1, 1)
	for _, bk := range buckets {
		b.Bucket(bk.Index, bk.Count)
	}
	b.EndHist()
	return append([]byte(nil), b.Finish()...)
}

func TestWireHistRejectsBadRuns(t *testing.T) {
	// Hist sections the builder's contract forbids but a hostile peer could
	// send. A descending index goes out as the gap 2^64−1: added to the index
	// as an int it wraps to −1, so a decoder that only range-checks the
	// result yields buckets 5 then 4 and breaks the iterator's ascending
	// contract. A count of 2^64−1 likewise wraps the running total to 0.
	for name, data := range map[string][]byte{
		"zero gap on a non-first run": badRunsReport(metrics.Bucket{Index: 3, Count: 1}, metrics.Bucket{Index: 3, Count: 1}),
		"gap wrapping the index":      badRunsReport(metrics.Bucket{Index: 5, Count: 1}, metrics.Bucket{Index: 4, Count: 1}),
		"count wrapping the total":    badRunsReport(metrics.Bucket{Index: 5, Count: 1}, metrics.Bucket{Index: 6, Count: 1<<64 - 1}),
	} {
		var p Parser
		if err := p.Reset(data); err != nil {
			t.Fatal(err)
		}
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
		if _, hd, _, ok := p.NextHist(nil); ok {
			it := hd.Buckets()
			first, _ := it.Next()
			second, _ := it.Next()
			t.Fatalf("%s: accepted, as %d observations in buckets %d then %d", name, hd.Count, first.Index, second.Index)
		}
		if p.Err() == nil {
			t.Fatalf("%s: did not set Err", name)
		}
	}
}
