package telemetry

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/metrics"
)

// shipRound encodes the registry and delivers the report, acking on
// success — one happy-path reporting interval.
func shipRound(t *testing.T, e *Encoder, c *Collector, now time.Time) IngestResult {
	t.Helper()
	data, seq := e.Encode(now.UnixNano())
	res, err := c.Ingest(data, now)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !res.Resync {
		e.Ack(res.Ack)
		if res.Ack != seq {
			t.Fatalf("acked %d, sent %d", res.Ack, seq)
		}
	}
	return res
}

func TestEncoderCollectorDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	cnt := reg.Counter("agent.probes_sent")
	g := reg.Gauge("agent.peers")
	h := reg.Histogram("agent.probe_rtt")
	e := NewEncoder("srv1", "d0.s1.p2", reg)
	c := NewCollector(CollectorConfig{})
	now := time.Unix(1000, 0)

	cnt.Add(10)
	g.Set(5)
	h.Observe(3 * time.Millisecond)
	h.Observe(8 * time.Millisecond)
	shipRound(t, e, c, now)

	if v, ok := c.RollupCounter("fleet", "agent.probes_sent"); !ok || v != 10 {
		t.Fatalf("fleet counter after round 1: %d ok=%v", v, ok)
	}
	if v, ok := c.RollupGauge("fleet", "agent.peers"); !ok || v != 5 {
		t.Fatalf("fleet gauge after round 1: %d ok=%v", v, ok)
	}

	// Second interval: deltas only.
	cnt.Add(7)
	g.Set(3)
	h.Observe(1 * time.Millisecond)
	shipRound(t, e, c, now.Add(5*time.Minute))

	if v, _ := c.RollupCounter("fleet", "agent.probes_sent"); v != 17 {
		t.Fatalf("fleet counter after round 2: %d", v)
	}
	if v, _ := c.RollupGauge("fleet", "agent.peers"); v != 3 {
		t.Fatalf("fleet gauge after round 2: %d", v)
	}
	// All scope levels must carry the same rollup for a single agent.
	for _, scope := range []string{"fleet", "d0", "d0.s1", "d0.s1.p2"} {
		if v, ok := c.RollupCounter(scope, "agent.probes_sent"); !ok || v != 17 {
			t.Fatalf("scope %q counter: %d ok=%v", scope, v, ok)
		}
	}
	fh, ok := c.RollupHistogram("fleet", "agent.probe_rtt")
	if !ok {
		t.Fatal("no fleet histogram")
	}
	want := metrics.NewLatencyHistogram()
	want.Observe(3 * time.Millisecond)
	want.Observe(8 * time.Millisecond)
	want.Observe(1 * time.Millisecond)
	assertHistEqual(t, fh, want)
}

func assertHistEqual(t *testing.T, got, want *metrics.Histogram) {
	t.Helper()
	if got.Count() != want.Count() || got.Sum() != want.Sum() ||
		got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("tallies: got n=%d sum=%v min=%v max=%v, want n=%d sum=%v min=%v max=%v",
			got.Count(), got.Sum(), got.Min(), got.Max(),
			want.Count(), want.Sum(), want.Min(), want.Max())
	}
	gi, wi := got.Buckets(), want.Buckets()
	for {
		gb, gok := gi.Next()
		wb, wok := wi.Next()
		if gok != wok {
			t.Fatalf("bucket support differs: got ok=%v want ok=%v", gok, wok)
		}
		if !gok {
			break
		}
		if gb != wb {
			t.Fatalf("bucket mismatch: got %v want %v", gb, wb)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if g, w := got.Percentile(q), want.Percentile(q); g != w {
			t.Fatalf("P%g: got %v want %v (must be bit-identical)", q*100, g, w)
		}
	}
}

// TestEncoderLostReportRecarried: a report that never reaches the
// collector is superseded by the next, which carries the same activity
// against the same base — nothing is lost.
func TestEncoderLostReportRecarried(t *testing.T) {
	reg := metrics.NewRegistry()
	cnt := reg.Counter("c")
	h := reg.Histogram("h")
	e := NewEncoder("srv1", "d0", reg)
	c := NewCollector(CollectorConfig{})
	now := time.Unix(1000, 0)

	cnt.Add(4)
	h.Observe(time.Millisecond)
	shipRound(t, e, c, now)

	// This report is built but never delivered (upload failed, gave up).
	cnt.Add(6)
	h.Observe(2 * time.Millisecond)
	e.Encode(now.Add(5 * time.Minute).UnixNano())

	// Next interval: more activity; the report carries both windows.
	cnt.Add(5)
	h.Observe(4 * time.Millisecond)
	shipRound(t, e, c, now.Add(10*time.Minute))

	if v, _ := c.RollupCounter("fleet", "c"); v != 15 {
		t.Fatalf("counter=%d want 15", v)
	}
	fh, _ := c.RollupHistogram("fleet", "h")
	want := metrics.NewLatencyHistogram()
	want.Observe(time.Millisecond)
	want.Observe(2 * time.Millisecond)
	want.Observe(4 * time.Millisecond)
	assertHistEqual(t, fh, want)
}

// TestCollectorDuplicateIdempotent: delivering the same report twice (a
// retry whose first attempt applied but whose ack was lost) folds once.
func TestCollectorDuplicateIdempotent(t *testing.T) {
	reg := metrics.NewRegistry()
	cnt := reg.Counter("c")
	h := reg.Histogram("h")
	e := NewEncoder("srv1", "d0", reg)
	c := NewCollector(CollectorConfig{})
	now := time.Unix(1000, 0)

	cnt.Add(3)
	h.Observe(time.Millisecond)
	data, seq := e.Encode(now.UnixNano())
	buf := append([]byte(nil), data...)
	if res, err := c.Ingest(buf, now); err != nil || res.Ack != seq {
		t.Fatalf("first delivery: %+v err=%v", res, err)
	}
	res, err := c.Ingest(buf, now)
	if err != nil || !res.Duplicate || res.Ack != seq {
		t.Fatalf("second delivery: %+v err=%v", res, err)
	}
	e.Ack(seq)
	if v, _ := c.RollupCounter("fleet", "c"); v != 3 {
		t.Fatalf("counter=%d want 3 (duplicate folded twice)", v)
	}
	fh, _ := c.RollupHistogram("fleet", "h")
	if fh.Count() != 1 {
		t.Fatalf("hist count=%d want 1", fh.Count())
	}
}

// TestCollectorResyncRebase: a collector that lost its per-agent state
// (restart) 409s the next delta report; the agent rebases and continues
// with only post-rebase activity — never double-counting.
func TestCollectorResyncRebase(t *testing.T) {
	reg := metrics.NewRegistry()
	cnt := reg.Counter("c")
	e := NewEncoder("srv1", "d0", reg)
	c1 := NewCollector(CollectorConfig{})
	now := time.Unix(1000, 0)

	cnt.Add(10)
	shipRound(t, e, c1, now)

	// Collector restarts empty.
	c2 := NewCollector(CollectorConfig{})
	cnt.Add(5)
	data, _ := e.Encode(now.Add(5 * time.Minute).UnixNano())
	res, err := c2.Ingest(data, now.Add(5*time.Minute))
	if err != nil || !res.Resync {
		t.Fatalf("expected resync from fresh collector: %+v err=%v", res, err)
	}
	e.Rebase()

	// Post-rebase activity ships self-contained.
	cnt.Add(2)
	res2 := shipRound(t, e, c2, now.Add(10*time.Minute))
	if res2.Resync {
		t.Fatal("rebased report still resynced")
	}
	if v, _ := c2.RollupCounter("fleet", "c"); v != 2 {
		t.Fatalf("counter=%d want 2 (only post-rebase delta)", v)
	}

	// And deltas resume normally afterwards.
	cnt.Add(9)
	shipRound(t, e, c2, now.Add(15*time.Minute))
	if v, _ := c2.RollupCounter("fleet", "c"); v != 11 {
		t.Fatalf("counter=%d want 11", v)
	}
}

func TestCollectorUnknownAgentWithBaseResyncs(t *testing.T) {
	var b ReportBuilder
	b.Begin("ghost", "d0", 5, 4, 0)
	b.Counter("c", 1)
	c := NewCollector(CollectorConfig{})
	res, err := c.Ingest(b.Finish(), time.Unix(0, 0))
	if err != nil || !res.Resync {
		t.Fatalf("unknown agent with base!=0: %+v err=%v", res, err)
	}
	if c.AgentCount() != 0 {
		t.Fatal("resynced agent was registered")
	}
}

// TestCollectorCorruptReportAtomic: a report that goes corrupt mid-payload
// must not leave a partial fold behind.
func TestCollectorCorruptReportAtomic(t *testing.T) {
	var b ReportBuilder
	b.Begin("srv1", "d0", 1, 0, 0)
	b.Counter("aaa", 100)
	b.Counter("bbb", 200)
	good := append([]byte(nil), b.Finish()...)
	bad := good[:len(good)-1] // truncate the last counter's delta

	c := NewCollector(CollectorConfig{})
	if _, err := c.Ingest(bad, time.Unix(0, 0)); err == nil {
		t.Fatal("corrupt report accepted")
	}
	if _, ok := c.RollupCounter("fleet", "aaa"); ok {
		t.Fatal("partial fold: counter aaa applied from a corrupt report")
	}
	if c.AgentCount() != 0 {
		t.Fatal("corrupt report registered its agent")
	}
}

func TestCollectorStaleFraction(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	now := time.Unix(10000, 0)
	for i, src := range []string{"a", "b", "c", "d"} {
		var b ReportBuilder
		b.Begin(src, "d0", 1, 0, 0)
		b.Counter("c", 1)
		at := now
		if i < 3 {
			at = now.Add(-20 * time.Minute) // stale
		}
		if _, err := c.Ingest(b.Finish(), at); err != nil {
			t.Fatal(err)
		}
	}
	if f := c.StaleFraction(15*time.Minute, now); f != 0.75 {
		t.Fatalf("StaleFraction=%v want 0.75", f)
	}
	if f := c.StaleFraction(30*time.Minute, now); f != 0 {
		t.Fatalf("StaleFraction=%v want 0", f)
	}
	if f := NewCollector(CollectorConfig{}).StaleFraction(time.Minute, now); f != 0 {
		t.Fatalf("empty collector StaleFraction=%v", f)
	}
}

func TestCollectorSampleRollups(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("c").Add(5)
	reg.Histogram("h").Observe(2 * time.Millisecond)
	e := NewEncoder("srv1", "d0", reg)
	c := NewCollector(CollectorConfig{})
	st := c.Store()
	now := time.Unix(1000, 0)
	shipRound(t, e, c, now)
	c.SampleRollups(now)

	if p, ok := st.Latest("fleet/counter/c"); !ok || p.Value != 5 {
		t.Fatalf("fleet/counter/c: %+v ok=%v", p, ok)
	}
	if p, ok := st.Latest("d0/counter/c"); !ok || p.Value != 5 {
		t.Fatalf("d0/counter/c: %+v ok=%v", p, ok)
	}
	p50, ok := st.Latest("fleet/p50/h")
	if !ok || p50.Value <= 0 {
		t.Fatalf("fleet/p50/h: %+v ok=%v", p50, ok)
	}
	if _, ok := st.Latest("fleet/p99/h"); !ok {
		t.Fatal("fleet/p99/h missing")
	}

	// The series key set and every sampled point of the fixture fleet are
	// those the report-by-report four-level fold produced (the golden was
	// taken from it): "d0" is both a1's leaf and the pods' ancestor, a0
	// counts towards fleet only, a7's fourth segment is cut.
	got := dumpStore(sampledFixture(t).Store())
	if len(got) != len(rollupGolden) {
		t.Fatalf("%d sampled points, want %d:\n%s", len(got), len(rollupGolden), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != rollupGolden[i] {
			t.Fatalf("point %d: got %s want %s", i, got[i], rollupGolden[i])
		}
	}
}

var rollupGolden = []string{
	"d0.s1.p2/counter/c@1300=53000",
	"d0.s1.p2/counter/c@1600=159000",
	"d0.s1.p2/counter/x@1300=9",
	"d0.s1.p2/counter/x@1600=18",
	"d0.s1.p2/gauge/g@1300=7",
	"d0.s1.p2/gauge/g@1600=14",
	"d0.s1.p2/p50/h@1300=0.12837",
	"d0.s1.p2/p50/h@1600=0.131501",
	"d0.s1.p2/p99/h@1300=7.01",
	"d0.s1.p2/p99/h@1600=7.02",
	"d0.s1.p3/counter/c@1300=3",
	"d0.s1.p3/counter/c@1600=9",
	"d0.s1.p3/gauge/g@1300=-1",
	"d0.s1.p3/gauge/g@1600=-2",
	"d0.s1.p3/p50/h@1300=0.31",
	"d0.s1.p3/p50/h@1600=0.316473",
	"d0.s1.p3/p99/h@1300=0.31",
	"d0.s1.p3/p99/h@1600=0.32",
	"d0.s1/counter/c@1300=53103",
	"d0.s1/counter/c@1600=159309",
	"d0.s1/counter/x@1300=9",
	"d0.s1/counter/x@1600=18",
	"d0.s1/gauge/g@1300=6",
	"d0.s1/gauge/g@1600=12",
	"d0.s1/p50/h@1300=0.209101",
	"d0.s1/p50/h@1600=0.214201",
	"d0.s1/p99/h@1300=40.01",
	"d0.s1/p99/h@1600=40.02",
	"d0/counter/c@1300=53113",
	"d0/counter/c@1600=159339",
	"d0/counter/x@1300=9",
	"d0/counter/x@1600=18",
	"d0/gauge/g@1300=11",
	"d0/gauge/g@1600=22",
	"d0/p50/h@1300=0.308938",
	"d0/p50/h@1600=0.316473",
	"d0/p99/h@1300=40.01",
	"d0/p99/h@1600=40.02",
	"d1.s0.p0/counter/c@1300=4",
	"d1.s0.p0/counter/c@1600=12",
	"d1.s0.p0/gauge/g@1300=1",
	"d1.s0.p0/gauge/g@1600=2",
	"d1.s0.p0/p50/h@1300=9000.01",
	"d1.s0.p0/p50/h@1600=9000.02",
	"d1.s0.p0/p99/h@1300=9000.01",
	"d1.s0.p0/p99/h@1600=9000.02",
	"d1.s0/counter/c@1300=4",
	"d1.s0/counter/c@1600=12",
	"d1.s0/gauge/g@1300=1",
	"d1.s0/gauge/g@1600=2",
	"d1.s0/p50/h@1300=9000.01",
	"d1.s0/p50/h@1600=9000.02",
	"d1.s0/p99/h@1300=9000.01",
	"d1.s0/p99/h@1600=9000.02",
	"d1/counter/c@1300=4",
	"d1/counter/c@1600=12",
	"d1/gauge/g@1300=1",
	"d1/gauge/g@1600=2",
	"d1/p50/h@1300=9000.01",
	"d1/p50/h@1600=9000.02",
	"d1/p99/h@1300=9000.01",
	"d1/p99/h@1600=9000.02",
	"fleet/counter/c@1300=53118",
	"fleet/counter/c@1600=159354",
	"fleet/counter/x@1300=9",
	"fleet/counter/x@1600=18",
	"fleet/gauge/g@1300=10",
	"fleet/gauge/g@1600=20",
	"fleet/p50/h@1300=0.996356",
	"fleet/p50/h@1600=0.996356",
	"fleet/p99/h@1300=9000.01",
	"fleet/p99/h@1600=9000.02",
}

// TestFleetHistogramParity is the acceptance differential test: many
// agents, each observing its own draws over several reporting rounds with
// loss and duplication in the mix — the fleet-merged histogram must be
// bit-identical (buckets, tallies, every percentile) to one histogram fed
// all observations directly.
func TestFleetHistogramParity(t *testing.T) {
	const agents = 20
	const rounds = 4
	c := NewCollector(CollectorConfig{})
	exact := metrics.NewLatencyHistogram()
	var exactProbes int64

	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}

	type ag struct {
		reg *metrics.Registry
		cnt *metrics.Counter
		h   *metrics.LockedHistogram
		enc *Encoder
	}
	fleet := make([]*ag, agents)
	for i := range fleet {
		reg := metrics.NewRegistry()
		src := string(rune('a'+i/10)) + string(rune('a'+i%10))
		fleet[i] = &ag{
			reg: reg,
			cnt: reg.Counter("agent.probes_sent"),
			h:   reg.Histogram("agent.probe_rtt"),
			enc: NewEncoder(src, "d0.s0.p0", reg),
		}
	}

	now := time.Unix(5000, 0)
	for r := 0; r < rounds; r++ {
		for _, a := range fleet {
			n := int(next()%50) + 1
			for j := 0; j < n; j++ {
				d := time.Duration(next()%uint64(500*time.Millisecond)) + time.Microsecond
				a.h.Observe(d)
				exact.Observe(d)
			}
			a.cnt.Add(int64(n))
			exactProbes += int64(n)

			data, seq := a.enc.Encode(now.UnixNano())
			switch next() % 4 {
			case 0: // lost: never delivered, re-carried next round
			case 1: // duplicated: delivered twice
				buf := append([]byte(nil), data...)
				res, err := c.Ingest(buf, now)
				if err != nil {
					t.Fatal(err)
				}
				res2, err := c.Ingest(buf, now)
				if err != nil || !res2.Duplicate {
					t.Fatalf("dup: %+v err=%v", res2, err)
				}
				a.enc.Ack(res.Ack)
				_ = seq
			default: // delivered once
				res, err := c.Ingest(data, now)
				if err != nil {
					t.Fatal(err)
				}
				a.enc.Ack(res.Ack)
			}
		}
		now = now.Add(5 * time.Minute)
	}
	// Final flush round so every agent's tail activity lands.
	for _, a := range fleet {
		data, _ := a.enc.Encode(now.UnixNano())
		res, err := c.Ingest(data, now)
		if err != nil {
			t.Fatal(err)
		}
		a.enc.Ack(res.Ack)
	}

	if v, _ := c.RollupCounter("fleet", "agent.probes_sent"); v != exactProbes {
		t.Fatalf("fleet probes=%d want %d", v, exactProbes)
	}
	fh, ok := c.RollupHistogram("fleet", "agent.probe_rtt")
	if !ok {
		t.Fatal("no fleet histogram")
	}
	assertHistEqual(t, fh, exact)
	// Pod-level rollup covers the same population here, so it must match too.
	ph, _ := c.RollupHistogram("d0.s0.p0", "agent.probe_rtt")
	assertHistEqual(t, ph, exact)
}

// goldenReports encodes a fixed registry twice: a self-contained first
// report, then — after its ack and more activity — a delta report whose
// histogram entries are the per-bucket differences against the acked base.
func goldenReports() (first, second []byte) {
	reg := metrics.NewRegistry()
	sent, peers := reg.Counter("agent.probes_sent"), reg.Gauge("agent.peers")
	rtt, wide := reg.Histogram("agent.rtt.intra-pod"), reg.Histogram("agent.rtt.inter-dc")
	idle := reg.Histogram("agent.rtt.idle")
	e := NewEncoder("srv042.d1", "d1.s2.p3", reg)
	observe := func(round int) {
		sent.Add(int64(1000 * round))
		peers.Set(int64(2500 - round))
		for i := 0; i < 300; i++ {
			rtt.Observe(time.Duration(180*round+7*i) * time.Microsecond)
		}
		for i := 0; i < 200; i++ {
			wide.Observe(time.Duration(50*round+i*i*i) * time.Microsecond)
		}
	}
	observe(1)
	idle.Observe(time.Millisecond)
	data, seq := e.Encode(1_782_864_000_000_000_000)
	first = append(first, data...)
	e.Ack(seq)
	observe(2)
	data, _ = e.Encode(1_782_864_300_000_000_000)
	return first, append(second, data...)
}

const goldenFirstHex = "" +
	"504d54318604097372763034322e64310864312e73322e703301008080a8ad95d780be310100116167656e742e70726f" +
	"6265735f73656e74e80701000b6167656e742e7065657273862703000e6167656e742e7274742e69646c650180897a80" +
	"897a80897a8e01010b076e7465722d6463860180948dca8617a08d06d0a4c9db3a510203010601080108010901080107" +
	"010701060106010501050104010401040104010301040103010301030102010301020103010201020103010201020102" +
	"010201010102010201020101010201010102010101020101010201010101010201010101010101010102010101010101" +
	"010101010101010101010101010101010101010101010101010101010101020101010101010101010201010101010201" +
	"010101010201010102010101010102010101020102010101020102010101020102010101020102010201020102010201" +
	"020102010201020102010201020103010201020102010301020103010201030102010301030102010301030103010301" +
	"030103010301030103010301020d0672612d706f6435e0e2f3de02c0fc15d0bb95026b01010201010101010201020101" +
	"010201020102010201020102010301020103010201030103010401030103010401040104010401050104010501060105" +
	"01060106010601070107010701080108010801090109010a010a010b010b010c010d010d010d010f010f0107"

const goldenSecondHex = "" +
	"504d5431d903097372763034322e64310864312e73322e7033020180e0cdc3d0e880be310100116167656e742e70726f" +
	"6265735f73656e74d00f01000b6167656e742e7065657273010200126167656e742e7274742e696e7465722d64638601" +
	"80eed1d38617a08d06f0b1cfdb3a5f020101040105010701060107010701060106010501050105010501040103010401" +
	"040103010301030103010201030103010201020102010301020102010201020101010201020102010101020101010201" +
	"010102010101020101010101020101010101010101010201010101010101010101010101010101010101010101010101" +
	"010101010101010101010102010101010101010101020101010101020101010101020101010201010101010201010102" +
	"010201010102010201010102010201010102010201020102010201020102010201020102010201020102010301020102" +
	"0102010301020103010201030102010301030102010301030103010301030103010301030103010301020d0672612d70" +
	"6f6428e0c8b39203c0fc1590b8ab02790101030103010301030103010301040103010401040105010401050105010501" +
	"0501060106010601070107010701080108010801090109010a010a010b010c010b010d010d010e010e010f01100111"

// TestReportGoldenBytes pins the PMT1 wire bytes: the constants were taken
// before the run codec moved into internal/metrics and the histogram became
// self-compacting, and neither may change a byte a collector receives.
func TestReportGoldenBytes(t *testing.T) {
	first, second := goldenReports()
	if got := hex.EncodeToString(first); got != goldenFirstHex {
		t.Fatalf("self-contained report bytes changed:\ngot  %s\nwant %s", got, goldenFirstHex)
	}
	if got := hex.EncodeToString(second); got != goldenSecondHex {
		t.Fatalf("delta report bytes changed:\ngot  %s\nwant %s", got, goldenSecondHex)
	}
	c := NewCollector(CollectorConfig{})
	for _, data := range [][]byte{first, second} {
		if _, err := c.Ingest(data, time.Unix(1000, 0)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if h, ok := c.RollupHistogram("fleet", "agent.rtt.inter-dc"); !ok || h.Count() != 400 {
		t.Fatalf("golden reports folded to %v, ok=%v", h, ok)
	}
}
