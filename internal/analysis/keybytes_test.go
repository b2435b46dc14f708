package analysis

import (
	"net/netip"
	"testing"

	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

func TestPodRefAppendToMatchesString(t *testing.T) {
	refs := []PodRef{
		{},
		{DC: 1, Podset: 2, Pod: 3},
		{DC: 12, Podset: 345, Pod: 6789},
		{DC: -1, Podset: -2, Pod: -3}, // never produced, but must still agree
	}
	for _, p := range refs {
		if got := string(p.AppendTo(nil)); got != p.String() {
			t.Errorf("AppendTo(%+v) = %q, String = %q", p, got, p.String())
		}
		// Appending to a non-empty prefix must not disturb it.
		if got := string(p.AppendTo([]byte("pre/"))); got != "pre/"+p.String() {
			t.Errorf("AppendTo with prefix = %q", got)
		}
	}
}

// TestAppendKeyerGoldens pins every keyer's literal key bytes — report rows,
// heatmap cells and black-hole pairs are all named by them — and its ok for
// records whose endpoints resolve (or not) against the topology.
func TestAppendKeyerGoldens(t *testing.T) {
	top := topology.SmallTestbed()
	k := &Keyer{Top: top}
	inside := func(i int) netip.Addr { return top.Server(topology.ServerID(i)).Addr }
	outside := netip.MustParseAddr("192.0.2.1")
	recs := []probe.Record{
		{Src: inside(0), Dst: inside(5)},
		{Src: inside(5), Dst: inside(0)},
		{Src: inside(0), Dst: inside(40)}, // DC1 -> DC2
		{Src: inside(0), Dst: outside},
		{Src: outside, Dst: inside(0)},
	}
	// One golden per record; "" means the keyer rejects the record.
	for _, c := range []struct {
		name string
		fn   func([]byte, *probe.Record) ([]byte, bool)
		want [5]string
	}{
		{"AppendSrcDC", k.AppendSrcDC, [5]string{"DC1", "DC1", "DC1", "DC1", ""}},
		{"AppendPodPair", k.AppendPodPair, [5]string{"d0.s0.p0|d0.s0.p1", "d0.s0.p1|d0.s0.p0", "d0.s0.p0|d1.s1.p1", "", ""}},
		{"AppendSrcPodPair", k.AppendSrcPodPair, [5]string{"d0.s0.p0|d0.s0.p1", "d0.s0.p1|d0.s0.p0", "d0.s0.p0|d1.s1.p1", "d0.s0.p0|", ""}},
		{"AppendDCPair", k.AppendDCPair, [5]string{"DC1->DC1", "DC1->DC1", "DC1->DC2", "", ""}},
		{"AppendServerPair", k.AppendServerPair, [5]string{"10.0.0.1|10.0.0.6", "10.0.0.6|10.0.0.1", "10.0.0.1|10.1.0.17", "10.0.0.1|192.0.2.1", "192.0.2.1|10.0.0.1"}},
		{"AppendServerPairBinary", k.AppendServerPairBinary, [5]string{"\x04\n\x00\x00\x01\n\x00\x00\x06", "\x04\n\x00\x00\x06\n\x00\x00\x01", "\x04\n\x00\x00\x01\n\x01\x00\x11", "\x04\n\x00\x00\x01\xc0\x00\x02\x01", "\x04\xc0\x00\x02\x01\n\x00\x00\x01"}},
	} {
		for i := range recs {
			got, ok := c.fn([]byte("pre/"), &recs[i])
			if want := c.want[i]; ok != (want != "") || ok && string(got) != "pre/"+want {
				t.Errorf("%s(%v->%v) = %q, %v; want %q appended", c.name, recs[i].Src, recs[i].Dst, got, ok, want)
			}
		}
	}
}

// TestFoldKeyersAgreeWithTextKeyers pins the two keyers only the fold job
// table uses to the ones they stand in for: the binary server-pair key
// renders to AppendServerPair's text for every address family, and
// AppendSrcPodPair is AppendPodPair plus a half-key — one SplitPodPair rejects
// — for exactly the records whose source resolves and AppendPodPair drops.
func TestFoldKeyersAgreeWithTextKeyers(t *testing.T) {
	top := topology.SmallTestbed()
	k := &Keyer{Top: top}
	inside := func(i int) netip.Addr { return top.Server(topology.ServerID(i)).Addr }
	addrs := []netip.Addr{inside(0), inside(5),
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:10.0.0.1"), netip.MustParseAddr("fe80::1%eth0")}
	for _, src := range addrs {
		for _, dst := range addrs {
			r := &probe.Record{Src: src, Dst: dst}
			want, _ := k.AppendServerPair(nil, r)
			bin, ok := k.AppendServerPairBinary(nil, r)
			if got := ServerPairKey(string(bin)); !ok || got != string(want) {
				t.Errorf("server pair %v->%v renders %q (ok=%v), want %q", src, dst, got, ok, want)
			}

			got, ok := k.AppendSrcPodPair(nil, r)
			srv, okPod := k.server(src)
			pair, okPair := k.AppendPodPair(nil, r)
			switch {
			case ok != okPod:
				t.Errorf("AppendSrcPodPair(%v->%v) ok=%v, source resolves: %v", src, dst, ok, okPod)
			case okPair && string(got) != string(pair):
				t.Errorf("AppendSrcPodPair(%v->%v) = %q, AppendPodPair %q", src, dst, got, pair)
			case ok && !okPair:
				if want := (PodRef{srv.DC, srv.Podset, srv.Pod}).String() + "|"; string(got) != want {
					t.Errorf("AppendSrcPodPair(%v->%v) = %q, want the half-key %q", src, dst, got, want)
				}
				if _, _, err := SplitPodPair(string(got)); err == nil {
					t.Errorf("SplitPodPair accepted the half-key %q", got)
				}
			}
		}
	}
}

// TestSplitServerPair: every AppendServerPair key — zoned and mapped
// addresses included — splits back into the record's two addresses, and
// anything else is refused.
func TestSplitServerPair(t *testing.T) {
	k := &Keyer{}
	addrs := []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:10.0.0.1"), netip.MustParseAddr("fe80::1%eth0")}
	for _, src := range addrs {
		for _, dst := range addrs {
			key, _ := k.AppendServerPair(nil, &probe.Record{Src: src, Dst: dst})
			if s, d, ok := SplitServerPair(string(key)); !ok || s != src || d != dst {
				t.Errorf("SplitServerPair(%q) = %v, %v, %v", key, s, d, ok)
			}
		}
	}
	for _, bad := range []string{"", "nope", "1.2.3.4|", "|1.2.3.4", "x|y", "1.2.3.4|5.6.7.8|9.9.9.9"} {
		if _, _, ok := SplitServerPair(bad); ok {
			t.Errorf("SplitServerPair(%q) ok", bad)
		}
	}
}

// TestAppendKeyersZeroAlloc: with a warm destination buffer, the byte
// keyers must not allocate — that is their whole reason to exist.
func TestAppendKeyersZeroAlloc(t *testing.T) {
	top := topology.SmallTestbed()
	k := &Keyer{Top: top}
	r := probe.Record{Src: top.Server(0).Addr, Dst: top.Server(topology.ServerID(5)).Addr}
	buf := make([]byte, 0, 128)
	keyers := []struct {
		name string
		fn   func([]byte, *probe.Record) ([]byte, bool)
	}{
		{"AppendSrcDC", k.AppendSrcDC},
		{"AppendPodPair", k.AppendPodPair},
		{"AppendDCPair", k.AppendDCPair},
		{"AppendServerPair", k.AppendServerPair},
		{"AppendSrcPodPair", k.AppendSrcPodPair},
		{"AppendServerPairBinary", k.AppendServerPairBinary},
	}
	for _, kr := range keyers {
		kr := kr
		avg := testing.AllocsPerRun(100, func() {
			if _, ok := kr.fn(buf[:0], &r); !ok {
				t.Fatal("keyer rejected resolvable record")
			}
		})
		if avg != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", kr.name, avg)
		}
	}
}
