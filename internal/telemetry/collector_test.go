package telemetry

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pingmesh/internal/metrics"
)

// fixtureAgent is one agent of the fixed fleet the rollup golden was taken
// from: what it ships every round, scaled by the round number.
type fixtureAgent struct {
	src, scope string
	c          uint64          // counter "c" delta (0 = absent)
	g          int64           // gauge "g" delta (0 = absent)
	h          []time.Duration // histogram "h" observations
	only       string          // a counter no other agent ships
}

// rollupFixture covers every shape of scope: none, a DC that is both one
// process's leaf and the pods' ancestor, a podset, two pods of one podset, a
// second DC, and a path deeper than a pod.
var rollupFixture = []fixtureAgent{
	{src: "a0", scope: "", c: 1, g: -2, h: []time.Duration{time.Millisecond}},
	{src: "a1", scope: "d0", c: 10, g: 5, h: []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}},
	{src: "a2", scope: "d0.s1", c: 100, h: []time.Duration{40 * time.Millisecond}},
	{src: "a3", scope: "d0.s1.p2", c: 1000, g: 7, h: []time.Duration{100 * time.Microsecond, 100 * time.Microsecond, 120 * time.Microsecond}},
	{src: "a4", scope: "d0.s1.p2", c: 2000, h: []time.Duration{200 * time.Microsecond}, only: "x"},
	{src: "a5", scope: "d0.s1.p3", c: 3, g: -1, h: []time.Duration{300 * time.Microsecond}},
	{src: "a6", scope: "d1.s0.p0", c: 4, g: 1, h: []time.Duration{9 * time.Second}},
	{src: "a7", scope: "d0.s1.p2.r3", c: 50000, h: []time.Duration{7 * time.Millisecond}},
}

// report builds the agent's report for a 1-based round as a delta on the
// round before.
func (a fixtureAgent) report(b *ReportBuilder, round int) []byte {
	b.Begin(a.src, a.scope, uint64(round), uint64(round-1), 0)
	if a.c != 0 {
		b.Counter("c", a.c*uint64(round))
	}
	if a.only != "" {
		b.Counter(a.only, 9)
	}
	if a.g != 0 {
		b.Gauge("g", a.g)
	}
	if len(a.h) != 0 {
		h := metrics.NewLatencyHistogram()
		for _, d := range a.h {
			h.Observe(d + time.Duration(round)*10*time.Microsecond)
		}
		appendHist(b, "h", h)
	}
	return b.Finish()
}

// appendHist adds h to the open report as one histogram entry.
func appendHist(b *ReportBuilder, name string, h *metrics.Histogram) {
	b.BeginHist(name, int64(h.Sum()), int64(h.Min()), int64(h.Max()))
	it := h.Buckets()
	for bk, ok := it.Next(); ok; bk, ok = it.Next() {
		b.Bucket(bk.Index, bk.Count)
	}
	b.EndHist()
}

// xorshift returns a deterministic xorshift64* generator for test fleets.
func xorshift(seed uint64) func() uint64 {
	return func() uint64 {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		return seed * 0x2545F4914F6CDD1D
	}
}

// dumpStore renders every point of every series, keys sorted.
func dumpStore(st *Store) []string {
	var out []string
	for _, k := range st.Keys() {
		for _, p := range st.Series(k) {
			out = append(out, fmt.Sprintf("%s@%d=%s", k, p.At.Unix(), strconv.FormatFloat(p.Value, 'g', -1, 64)))
		}
	}
	return out
}

// sampledFixture runs the fixture fleet for two rounds, sampling after each.
func sampledFixture(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector(CollectorConfig{})
	var b ReportBuilder
	for round := 1; round <= 2; round++ {
		now := time.Unix(int64(1000+300*round), 0)
		for _, a := range rollupFixture {
			if res, err := c.Ingest(a.report(&b, round), now); err != nil || res.Resync || res.Duplicate {
				t.Fatalf("%s round %d: %+v err=%v", a.src, round, res, err)
			}
		}
		c.SampleRollups(now)
	}
	return c
}

// TestCollectorScopeLevels pins which levels a scope path counts towards —
// fleet plus its shallowest three segments — and which paths are refused.
func TestCollectorScopeLevels(t *testing.T) {
	for _, tc := range []struct {
		scope  string
		levels []string // beyond fleet
		absent []string
	}{
		{scope: "", absent: []string{""}},
		{scope: "d0", levels: []string{"d0"}},
		{scope: "d0.s1", levels: []string{"d0", "d0.s1"}},
		{scope: "d0.s1.p2", levels: []string{"d0", "d0.s1", "d0.s1.p2"}},
		{scope: "d0.s1.p2.r3", levels: []string{"d0", "d0.s1", "d0.s1.p2"},
			absent: []string{"d0.s1.p2.r3", "s1.p2.r3", "p2.r3", "r3"}},
		{scope: "d0.s1.p2.r3.u4", levels: []string{"d0", "d0.s1", "d0.s1.p2"}, absent: []string{"d0.s1.p2.r3"}},
		{scope: "fleetwide.s1", levels: []string{"fleetwide", "fleetwide.s1"}},
		{scope: "d0.fleet", levels: []string{"d0", "d0.fleet"}},
	} {
		c := NewCollector(CollectorConfig{})
		var b ReportBuilder
		b.Begin("srv", tc.scope, 1, 0, 0)
		b.Counter("c", 7)
		if _, err := c.Ingest(b.Finish(), time.Unix(0, 0)); err != nil {
			t.Fatalf("scope %q: %v", tc.scope, err)
		}
		c.SampleRollups(time.Unix(0, 0))
		for _, level := range append([]string{"fleet"}, tc.levels...) {
			if v, ok := c.RollupCounter(level, "c"); !ok || v != 7 {
				t.Errorf("scope %q: level %q reads %d ok=%v, want 7", tc.scope, level, v, ok)
			}
			if p, ok := c.Store().Latest(level + "/counter/c"); !ok || p.Value != 7 {
				t.Errorf("scope %q: series %s/counter/c = %+v ok=%v, want 7", tc.scope, level, p, ok)
			}
		}
		for _, level := range tc.absent {
			if v, ok := c.RollupCounter(level, "c"); ok {
				t.Errorf("scope %q: level %q exists (%d)", tc.scope, level, v)
			}
		}
		if got, want := len(c.Store().Keys()), 1+len(tc.levels); got != want {
			t.Errorf("scope %q: %d series %v, want %d", tc.scope, got, c.Store().Keys(), want)
		}
	}

	for _, scope := range []string{"fleet", "fleet.x", "fleet.s1.p2", ".", ".a", "a.", "a..b", "a.b.c..d", "a.b.c.d."} {
		c := NewCollector(CollectorConfig{})
		var b ReportBuilder
		b.Begin("srv", scope, 1, 0, 0)
		b.Counter("c", 7)
		if _, err := c.Ingest(b.Finish(), time.Unix(0, 0)); err == nil {
			t.Errorf("scope %q accepted", scope)
		}
		if _, ok := c.RollupCounter("fleet", "c"); ok || c.AgentCount() != 0 {
			t.Errorf("scope %q: a refused report left state behind", scope)
		}
		if n := c.Metrics().Snapshot().Counters["telemetry.rejects"]; n != 1 {
			t.Errorf("scope %q: telemetry.rejects = %d, want 1", scope, n)
		}
	}

	// Over HTTP a refused scope is a 400, like any other bad report.
	srv := httptest.NewServer(NewCollector(CollectorConfig{}).Handler(nil))
	defer srv.Close()
	var b ReportBuilder
	b.Begin("srv", "fleet", 1, 0, 0)
	resp, err := http.Post(srv.URL+"/report", "application/octet-stream", bytes.NewReader(b.Finish()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("scope \"fleet\" over HTTP: status %d, want 400", resp.StatusCode)
	}
}

// TestCollectorAgentChangesScope: an agent is one agent whatever scope it
// reports under — its ack state follows src, its deltas land where the
// report says.
func TestCollectorAgentChangesScope(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	now := time.Unix(1000, 0)
	var b ReportBuilder
	send := func(scope string, seq, base, delta uint64) IngestResult {
		t.Helper()
		b.Begin("mover", scope, seq, base, 0)
		b.Counter("c", delta)
		res, err := c.Ingest(b.Finish(), now)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := send("d0.s0.p0", 1, 0, 5); res.Ack != 1 {
		t.Fatalf("first report: %+v", res)
	}
	// The same agent, moved to another pod: a delta on what it sent before.
	if res := send("d0.s0.p1", 2, 1, 3); res.Ack != 2 || res.Resync {
		t.Fatalf("report from the new scope: %+v", res)
	}
	// Its retry is a duplicate even though the scope differs from report 1's.
	if res := send("d0.s0.p1", 2, 1, 3); !res.Duplicate {
		t.Fatalf("retry from the new scope: %+v", res)
	}
	if n := c.AgentCount(); n != 1 {
		t.Fatalf("AgentCount = %d, want 1", n)
	}
	for level, want := range map[string]int64{"d0.s0.p0": 5, "d0.s0.p1": 3, "d0.s0": 8, "d0": 8, "fleet": 8} {
		if v, _ := c.RollupCounter(level, "c"); v != want {
			t.Errorf("%s = %d, want %d", level, v, want)
		}
	}
}

// TestCollectorResyncReasons: the two ways a report draws a 409 are counted
// apart, and telemetry.resyncs stays their total.
func TestCollectorResyncReasons(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	var b ReportBuilder
	send := func(src string, seq, base uint64) IngestResult {
		t.Helper()
		b.Begin(src, "d0", seq, base, 0)
		b.Counter("c", 1)
		res, err := c.Ingest(b.Finish(), time.Unix(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	send("known", 1, 0)
	for i := 0; i < 2; i++ {
		if res := send("ghost", 5, 4); !res.Resync {
			t.Fatalf("unknown agent with a base: %+v", res)
		}
	}
	if res := send("known", 9, 7); !res.Resync || res.LastApplied != 1 {
		t.Fatalf("base mismatch: %+v", res)
	}
	got := c.Metrics().Snapshot().Counters
	for name, want := range map[string]int64{
		"telemetry.resyncs_unknown_agent": 2,
		"telemetry.resyncs_base_mismatch": 1,
		"telemetry.resyncs":               3,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
}

// TestCollectorRefusesForgedSectionCount: every counter, gauge and
// histogram entry takes at least three bytes, so a section count past a
// third of the bytes left is a lie, even where the bytes left could hold
// that many single bytes. Such a report is refused whole: one reject, no
// cell touched, and the agent's delta base where it was.
func TestCollectorRefusesForgedSectionCount(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	var b ReportBuilder
	h := metrics.NewLatencyHistogram()
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	report := func(seq uint64) []byte {
		b.Begin("srv", "d0.s0.p0", seq, seq-1, 0)
		b.Counter("c", 7)
		b.Gauge("g", 3)
		appendHist(&b, "h", h)
		return b.Finish()
	}
	now := time.Unix(0, 0)
	if _, err := c.Ingest(report(1), now); err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), report(2)...)
	at := bytes.Index(forged, []byte("d0.s0.p0")) + len("d0.s0.p0") + 3 // past seq, base and now
	left := len(forged) - at - 1
	if forged[at] != 1 || left/3+1 >= 0x80 {
		t.Fatalf("counter count %d at byte %d, %d bytes left: not the one-byte count of one counter", forged[at], at, left)
	}
	forged[at] = byte(left/3 + 1)
	var p Parser
	if err := p.Reset(forged); err == nil {
		t.Errorf("the parser opened a section of %d entries in %d bytes", forged[at], left)
	}
	if _, err := c.Ingest(forged, now); err == nil {
		t.Fatalf("a count of %d entries in %d bytes was accepted", forged[at], left)
	}
	if n := c.Metrics().Snapshot().Counters["telemetry.rejects"]; n != 1 {
		t.Errorf("telemetry.rejects = %d, want 1", n)
	}
	cv, _ := c.RollupCounter("fleet", "c")
	gv, _ := c.RollupGauge("fleet", "g")
	hv, _ := c.RollupHistogram("fleet", "h")
	if cv != 7 || gv != 3 || hv.Count() != 2 {
		t.Errorf("after the refused report: c=%d g=%d h has %d observations, want 7, 3, 2", cv, gv, hv.Count())
	}
	if res, err := c.Ingest(report(2), now); err != nil || res.Resync || res.Ack != 2 {
		t.Fatalf("the genuine report on the same base: %+v err=%v", res, err)
	}
	if cv, _ := c.RollupCounter("fleet", "c"); cv != 14 {
		t.Errorf("c = %d after the genuine report, want 14", cv)
	}
}

// TestCollectorRollupGauges: SampleRollups publishes how many cells it
// sampled; the agent gauge is the registered count.
func TestCollectorRollupGauges(t *testing.T) {
	c := sampledFixture(t)
	g := c.Metrics().Snapshot().Gauges
	// One cell per counter and gauge series, one per p50/p99 pair.
	cells := 0
	for _, k := range c.Store().Keys() {
		if !strings.Contains(k, "/p99/") {
			cells++
		}
	}
	if g["telemetry.rollup_cells"] != int64(cells) {
		t.Errorf("telemetry.rollup_cells = %d, want %d", g["telemetry.rollup_cells"], cells)
	}
	if _, ok := g["telemetry.rollup_wall_us"]; !ok {
		t.Error("telemetry.rollup_wall_us not published")
	}
	if g["telemetry.agents"] != int64(len(rollupFixture)) || c.AgentCount() != len(rollupFixture) {
		t.Errorf("telemetry.agents = %d, AgentCount = %d, want %d", g["telemetry.agents"], c.AgentCount(), len(rollupFixture))
	}
}

// concurrentFleet builds the reports of TestConcurrentIngestMatchesSerial:
// agents spread over shared pods, plus one each at no scope, at a DC that
// is also the pods' ancestor, and below a pod. reports[a][r] is agent a's
// round-r report.
func concurrentFleet(agents, rounds int) (reports [][][]byte, scopes []string) {
	next := xorshift(0x9E3779B97F4A7C15)
	var b ReportBuilder
	h := metrics.NewLatencyHistogram()
	for a := 0; a < agents; a++ {
		scope := fmt.Sprintf("d%d.s%d.p%d", a%2, a%3, a%5)
		switch a {
		case 0:
			scope = ""
		case 1:
			scope = "d0"
		case 2:
			scope = "d1.s0.p0.r9"
		}
		scopes = append(scopes, scope)
		var rs [][]byte
		for r := 0; r < rounds; r++ {
			b.Begin(fmt.Sprintf("srv%03d", a), scope, uint64(r+1), uint64(r), 0)
			b.Counter("c", 1+next()%1000)
			if next()%3 == 0 {
				b.Counter("rare", 1)
			}
			b.Gauge("g", int64(next()%41)-20)
			h.Reset()
			for o := 0; o < 8; o++ {
				h.Observe(time.Duration(next()%uint64(50*time.Millisecond)) + time.Microsecond)
			}
			appendHist(&b, "h", h)
			rs = append(rs, append([]byte(nil), b.Finish()...))
		}
		reports = append(reports, rs)
	}
	return reports, scopes
}

// TestConcurrentIngestMatchesSerial: reports ingested from many goroutines
// — every one delivered twice at the same moment, with samples and reads
// running beside them — leave exactly the state a serial collector fed each
// report once does, at every level.
func TestConcurrentIngestMatchesSerial(t *testing.T) {
	const agents, rounds, lanes = 64, 4, 8
	reports, scopes := concurrentFleet(agents, rounds)
	now := time.Unix(1000, 0)

	serial := NewCollector(CollectorConfig{})
	for _, rs := range reports {
		for _, data := range rs {
			if res, err := serial.Ingest(data, now); err != nil || res.Resync || res.Duplicate {
				t.Fatalf("serial: %+v err=%v", res, err)
			}
		}
	}

	c := NewCollector(CollectorConfig{})
	var dups, folds atomic.Int64
	deliver := func(data []byte) {
		res, err := c.Ingest(data, now)
		switch {
		case err != nil || res.Resync:
			t.Errorf("concurrent: %+v err=%v", res, err)
		case res.Duplicate:
			dups.Add(1)
		default:
			folds.Add(1)
		}
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() { // the read side, throughout
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.SampleRollups(now)
			scope := scopes[i%len(scopes)]
			c.RollupCounter("fleet", "c")
			c.RollupGauge("d0", "g")
			c.RollupHistogram("d1.s0", "h")
			c.RollupHistogram(scope, "h")
			if n := c.AgentCount(); n < 0 || n > agents {
				t.Errorf("AgentCount = %d", n)
			}
			if f := c.StaleFraction(time.Minute, now); f != 0 {
				t.Errorf("StaleFraction = %v", f)
			}
		}
	}()
	for l := 0; l < lanes; l++ {
		writers.Add(1)
		go func(l int) { // lane l owns the agents that are l modulo lanes
			defer writers.Done()
			var twin sync.WaitGroup
			for r := 0; r < rounds; r++ {
				for a := l; a < agents; a += lanes {
					data := reports[a][r]
					twin.Add(1)
					go func() { // the same report again, from another goroutine
						defer twin.Done()
						deliver(data)
					}()
					deliver(data)
					twin.Wait() // a round is acked before the next is sent
				}
			}
		}(l)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if f, d := folds.Load(), dups.Load(); f != agents*rounds || d != agents*rounds {
		t.Fatalf("%d deliveries folded and %d answered Duplicate, want %d each", f, d, agents*rounds)
	}
	if c.AgentCount() != agents || serial.AgentCount() != agents {
		t.Fatalf("AgentCount = %d (serial %d), want %d", c.AgentCount(), serial.AgentCount(), agents)
	}
	levels := map[string]bool{"fleet": true}
	for _, s := range scopes {
		for i := 0; i <= len(s); i++ {
			if i > 0 && (i == len(s) || s[i] == '.') {
				levels[s[:i]] = true
			}
		}
	}
	for level := range levels {
		for _, name := range []string{"c", "rare"} {
			got, gok := c.RollupCounter(level, name)
			want, wok := serial.RollupCounter(level, name)
			if got != want || gok != wok {
				t.Errorf("%s counter %s = %d ok=%v, serial %d ok=%v", level, name, got, gok, want, wok)
			}
		}
		got, gok := c.RollupGauge(level, "g")
		want, wok := serial.RollupGauge(level, "g")
		if got != want || gok != wok {
			t.Errorf("%s gauge g = %d ok=%v, serial %d ok=%v", level, got, gok, want, wok)
		}
		gh, gok := c.RollupHistogram(level, "h")
		wh, wok := serial.RollupHistogram(level, "h")
		if gok != wok {
			t.Errorf("%s histogram h: ok=%v, serial ok=%v", level, gok, wok)
		} else if gok {
			assertHistEqual(t, gh, wh)
		}
	}
	// A sample after the last report is the serial collector's sample.
	c.SampleRollups(now.Add(time.Second))
	serial.SampleRollups(now.Add(time.Second))
	for _, k := range serial.Store().Keys() {
		got, _ := c.Store().Latest(k)
		want, _ := serial.Store().Latest(k)
		if got != want {
			t.Errorf("series %s: sampled %+v, serial %+v", k, got, want)
		}
	}
	if g, w := len(c.Store().Keys()), len(serial.Store().Keys()); g != w {
		t.Errorf("%d series, serial %d", g, w)
	}
}
