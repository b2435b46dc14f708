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

// TestAppendKeyersMatchStringKeyers pins every AppendX keyer to its string
// counterpart: byte-identical keys and identical ok for records whose
// endpoints resolve (or not) against the topology.
func TestAppendKeyersMatchStringKeyers(t *testing.T) {
	top := topology.SmallTestbed()
	k := &Keyer{Top: top}

	inside := func(i int) netip.Addr { return top.Server(topology.ServerID(i)).Addr }
	outside := netip.MustParseAddr("192.0.2.1")
	recs := []probe.Record{
		{Src: inside(0), Dst: inside(5)},
		{Src: inside(5), Dst: inside(0)},
		{Src: inside(0), Dst: inside(0)},
		{Src: inside(0), Dst: outside},
		{Src: outside, Dst: inside(0)},
		{Src: outside, Dst: outside},
	}
	pairs := []struct {
		name   string
		str    func(*probe.Record) (string, bool)
		append func([]byte, *probe.Record) ([]byte, bool)
	}{
		{"SrcServer", k.SrcServer, k.AppendSrcServer},
		{"SrcPod", k.SrcPod, k.AppendSrcPod},
		{"SrcDC", k.SrcDC, k.AppendSrcDC},
		{"PodPair", k.PodPair, k.AppendPodPair},
		{"DCPair", k.DCPair, k.AppendDCPair},
		{"ServerPair", k.ServerPair, k.AppendServerPair},
	}
	for _, p := range pairs {
		buf := make([]byte, 0, 64)
		for i := range recs {
			r := &recs[i]
			wantKey, wantOK := p.str(r)
			gotBytes, gotOK := p.append(buf[:0], r)
			if gotOK != wantOK {
				t.Errorf("%s(%v->%v): ok=%v, string keyer ok=%v", p.name, r.Src, r.Dst, gotOK, wantOK)
				continue
			}
			if gotOK && string(gotBytes) != wantKey {
				t.Errorf("%s(%v->%v): key %q, string keyer %q", p.name, r.Src, r.Dst, gotBytes, wantKey)
			}
		}
	}
}

// TestFoldKeyersAgreeWithTextKeyers pins the two keyers only the fold job
// table uses to the ones they stand in for: the binary server-pair key
// renders to AppendServerPair's text for every address family, and
// AppendSrcPodPair is AppendPodPair plus a half-key — one SplitPodPair rejects
// — for exactly the records AppendSrcPod keys and AppendPodPair drops.
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
			want, _ := k.ServerPair(r)
			bin, ok := k.AppendServerPairBinary(nil, r)
			if got := ServerPairKey(string(bin)); !ok || got != want {
				t.Errorf("server pair %v->%v renders %q (ok=%v), want %q", src, dst, got, ok, want)
			}

			got, ok := k.AppendSrcPodPair(nil, r)
			pod, okPod := k.SrcPod(r)
			pair, okPair := k.PodPair(r)
			switch {
			case ok != okPod:
				t.Errorf("AppendSrcPodPair(%v->%v) ok=%v, SrcPod ok=%v", src, dst, ok, okPod)
			case okPair && string(got) != pair:
				t.Errorf("AppendSrcPodPair(%v->%v) = %q, PodPair %q", src, dst, got, pair)
			case ok && !okPair:
				if string(got) != pod+"|" {
					t.Errorf("AppendSrcPodPair(%v->%v) = %q, want the half-key %q", src, dst, got, pod+"|")
				}
				if _, _, err := SplitPodPair(string(got)); err == nil {
					t.Errorf("SplitPodPair accepted the half-key %q", got)
				}
			}
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
		{"AppendSrcServer", k.AppendSrcServer},
		{"AppendSrcPod", k.AppendSrcPod},
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
