package analysis

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

var at = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func rec(rtt time.Duration, errStr string) probe.Record {
	return probe.Record{
		Start: at,
		Src:   netip.MustParseAddr("10.0.0.1"),
		Dst:   netip.MustParseAddr("10.0.1.1"),
		RTT:   rtt,
		Err:   errStr,
	}
}

func TestDropSignature(t *testing.T) {
	cases := []struct {
		rtt  time.Duration
		want int
	}{
		{300 * time.Microsecond, 0},
		{2 * time.Second, 0},
		{2500 * time.Millisecond, 1},
		{3 * time.Second, 1},
		{5999 * time.Millisecond, 1},
		{6 * time.Second, 2},
		{9 * time.Second, 2},
		{14999 * time.Millisecond, 2},
		{15 * time.Second, 0}, // beyond the retransmit window: not classified
	}
	for _, c := range cases {
		if got := DropSignature(c.rtt); got != c.want {
			t.Errorf("DropSignature(%v) = %d, want %d", c.rtt, got, c.want)
		}
	}
}

func TestLatencyStatsCounts(t *testing.T) {
	s := NewLatencyStats()
	for i := 0; i < 96; i++ {
		r := rec(300*time.Microsecond, "")
		s.Add(&r)
	}
	r3 := rec(3*time.Second, "")
	r9 := rec(9*time.Second, "")
	rf := rec(0, "timeout")
	s.Add(&r3)
	s.Add(&r9)
	s.Add(&rf)
	if s.Total() != 99 || s.Success() != 98 || s.Failed() != 1 {
		t.Fatalf("counts: total=%d success=%d failed=%d", s.Total(), s.Success(), s.Failed())
	}
	// Heuristic: (1+1)/98 — 9s counts once, failures excluded.
	want := 2.0 / 98.0
	if got := s.DropRate(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("DropRate = %g, want %g", got, want)
	}
	if fr := s.FailureRate(); fr < 0.0100 || fr > 0.0102 {
		t.Fatalf("FailureRate = %g", fr)
	}
}

func TestLatencyStatsEmptyDropRate(t *testing.T) {
	s := NewLatencyStats()
	if s.DropRate() != 0 || s.FailureRate() != 0 {
		t.Fatal("empty stats should report zero rates")
	}
}

func TestLatencyStatsMergeEqualsUnion(t *testing.T) {
	f := func(aRTTs, bRTTs []uint16) bool {
		a, b, all := NewLatencyStats(), NewLatencyStats(), NewLatencyStats()
		for _, v := range aRTTs {
			r := rec(time.Duration(v)*time.Millisecond, "")
			a.Add(&r)
			all.Add(&r)
		}
		for _, v := range bRTTs {
			r := rec(time.Duration(v)*time.Millisecond, "")
			b.Add(&r)
			all.Add(&r)
		}
		a.Merge(b)
		return a.Total() == all.Total() &&
			a.DropRate() == all.DropRate() &&
			a.Percentile(0.5) == all.Percentile(0.5) &&
			a.Percentile(0.99) == all.Percentile(0.99)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadStats(t *testing.T) {
	s := NewLatencyStats()
	r := rec(300*time.Microsecond, "")
	r.PayloadRTT = 500 * time.Microsecond
	s.Add(&r)
	if s.PayloadSummary().Count != 1 {
		t.Fatal("payload observation missing")
	}
	if len(s.PayloadCDF()) == 0 || len(s.CDF()) == 0 {
		t.Fatal("CDFs empty")
	}
}

func TestPodRefRoundTrip(t *testing.T) {
	ref := PodRef{DC: 2, Podset: 13, Pod: 7}
	got, err := ParsePodRef(ref.String())
	if err != nil || got != ref {
		t.Fatalf("round trip: %v %v", got, err)
	}
	for _, bad := range []string{"", "x", "d1.s2", "dx.s1.p1", "d1.sx.p1", "d1.s1.px", "1.2.3"} {
		if _, err := ParsePodRef(bad); err == nil {
			t.Errorf("ParsePodRef(%q) succeeded", bad)
		}
	}
}

func TestKeyerScopes(t *testing.T) {
	top := topology.SmallTestbed()
	k := &Keyer{Top: top}
	src := top.Server(0)
	dst := top.Server(topology.ServerID(5)) // another server in DC1
	r := probe.Record{Src: src.Addr, Dst: dst.Addr}

	if key, ok := k.AppendSrcDC(nil, &r); !ok || string(key) != top.DCs[src.DC].Name {
		t.Fatalf("AppendSrcDC = %q,%v", key, ok)
	}
	pair, ok := k.AppendPodPair(nil, &r)
	if !ok {
		t.Fatal("AppendPodPair failed")
	}
	s, d, err := SplitPodPair(string(pair))
	if err != nil {
		t.Fatal(err)
	}
	if s != (PodRef{src.DC, src.Podset, src.Pod}) || d != (PodRef{dst.DC, dst.Podset, dst.Pod}) {
		t.Fatalf("pair %q splits to %v, %v", pair, s, d)
	}
}

func TestKeyerUnknownAddr(t *testing.T) {
	top := topology.SmallTestbed()
	k := &Keyer{Top: top}
	r := probe.Record{Src: netip.MustParseAddr("192.0.2.1"), Dst: top.Server(0).Addr}
	if _, ok := k.AppendSrcDC(nil, &r); ok {
		t.Fatal("unknown source resolved")
	}
	if _, ok := k.AppendPodPair(nil, &r); ok {
		t.Fatal("unknown source resolved in pair")
	}
	r2 := probe.Record{Src: top.Server(0).Addr, Dst: netip.MustParseAddr("192.0.2.1")}
	if _, ok := k.AppendPodPair(nil, &r2); ok {
		t.Fatal("unknown destination resolved in pair")
	}
}

func TestSplitPodPairErrors(t *testing.T) {
	for _, bad := range []string{"", "a", "d1.s1.p1", "d1.s1.p1|bogus", "bogus|d1.s1.p1"} {
		if _, _, err := SplitPodPair(bad); err == nil {
			t.Errorf("SplitPodPair(%q) succeeded", bad)
		}
	}
}

func TestService(t *testing.T) {
	top := topology.SmallTestbed()
	ids := top.DCs[0].Podsets[0].Pods[0].Servers
	svc := ServiceFromServers("search", top, ids)
	if svc.Size() != len(ids) {
		t.Fatalf("Size = %d", svc.Size())
	}
	member := probe.Record{Src: top.Server(ids[0]).Addr}
	outsider := probe.Record{Src: top.Server(top.DCs[1].Podsets[0].Pods[0].Servers[0]).Addr}
	if !svc.Contains(&member) {
		t.Fatal("member not recognized")
	}
	if svc.Contains(&outsider) {
		t.Fatal("outsider recognized")
	}
}

func TestAlertThresholds(t *testing.T) {
	th := DefaultThresholds()

	healthy := NewLatencyStats()
	for i := 0; i < 10000; i++ {
		r := rec(400*time.Microsecond, "")
		healthy.Add(&r)
	}
	if a := Check("dc", healthy, th, at); a != nil {
		t.Fatalf("healthy scope alerted: %v", a)
	}

	// Drop rate 5e-3 > 1e-3 threshold.
	droppy := NewLatencyStats()
	for i := 0; i < 10000; i++ {
		r := rec(400*time.Microsecond, "")
		droppy.Add(&r)
	}
	for i := 0; i < 50; i++ {
		r := rec(3*time.Second, "")
		droppy.Add(&r)
	}
	a := Check("dc", droppy, th, at)
	if a == nil {
		t.Fatal("droppy scope did not alert")
	}
	if a.DropRate < 4e-3 || a.Scope != "dc" || a.String() == "" {
		t.Fatalf("alert = %+v", a)
	}

	// P99 above 5ms.
	slow := NewLatencyStats()
	for i := 0; i < 1000; i++ {
		r := rec(8*time.Millisecond, "")
		slow.Add(&r)
	}
	if a := Check("dc", slow, th, at); a == nil {
		t.Fatal("slow scope did not alert")
	}

	// Too few probes: suppressed.
	tiny := NewLatencyStats()
	r := rec(3*time.Second, "")
	tiny.Add(&r)
	if a := Check("dc", tiny, th, at); a != nil {
		t.Fatalf("tiny scope alerted: %v", a)
	}
}
