package pinglist

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"pingmesh/internal/httpcache"
)

// xmlSafe reports whether s round-trips losslessly through XML: valid
// UTF-8 made only of XML 1.0 Char runes. Anything else is replaced by the
// escaper, so field equality cannot be asserted for it.
func xmlSafe(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		switch {
		case r == 0x9 || r == 0xA || r == 0xD:
		case r >= 0x20 && r <= 0xD7FF:
		case r >= 0xE000 && r <= 0xFFFD:
		case r >= 0x10000 && r <= 0x10FFFF:
		default:
			return false
		}
	}
	return true
}

// unmarshalSeeds are the bodies FuzzUnmarshal was first seeded with:
// documents encoding/xml reads that Marshal never writes, and garbage.
// They stay in its corpus, and Unmarshal must reject every one
// (TestUnmarshalRejectsNonCanonical).
var unmarshalSeeds = []string{
	"<Pinglist/>",
	"not xml",
	`<Pinglist server="x"><Peer addr="1.2.3.4" port="1" class="intra-pod" proto="tcp" qos="high" interval="10" payload="0"></Peer></Pinglist>`,
}

// generatedFile derives a pinglist from fuzz bytes: server and version
// are cut from them as they are — entities, control bytes and invalid
// UTF-8 included — and the peers come from fileFromBytes' value space, in
// which the top byte values stand for a peer that needs escaping or one
// that fails Validate.
func generatedFile(data []byte) *File {
	server, rest, _ := bytes.Cut(data, []byte{0})
	version, seed, _ := bytes.Cut(rest, []byte{0})
	f := fileFromBytes(string(server), string(version), seed)
	for i := range f.Peers {
		p := &f.Peers[i]
		switch seed[i] {
		case 250:
			p.Addr = "fe80::1%z\"&<>'\t\n\r\u00fc" // a zone may hold anything
		case 251:
			p.Port = 0
		case 252:
			p.IntervalSec = 0
		case 253:
			p.Class = "intra-pod\n"
		case 254:
			p.Addr = "10.0.0.256"
		case 255:
			p.PayloadLen = -1
		}
	}
	return f
}

// xmlOracle fails t unless encoding/xml reads data as got. head gives a
// document's root element name, which only encoding/xml sets, and its
// timestamp, compared as an instant in a zone of the same name.
func xmlOracle[T any](t *testing.T, data []byte, got *T, head func(*T) (*xml.Name, *time.Time)) {
	t.Helper()
	var want T
	if err := xml.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoded a body encoding/xml rejects (%v):\n%q", err, data)
	}
	wantName, wantAt := head(&want)
	gotName, gotAt := head(got)
	if !wantAt.Equal(*gotAt) || wantAt.Location().String() != gotAt.Location().String() {
		t.Fatalf("generated %v, encoding/xml %v", *gotAt, *wantAt)
	}
	*wantName, *wantAt = *gotName, *gotAt
	if !reflect.DeepEqual(&want, got) {
		t.Fatalf("decoded %+v\nencoding/xml %+v", got, &want)
	}
}

func fileHead(f *File) (*xml.Name, *time.Time)   { return &f.XMLName, &f.Generated }
func deltaHead(d *Delta) (*xml.Name, *time.Time) { return &d.XMLName, &d.Generated }

// FuzzUnmarshal holds the decoder to two properties on any input. If
// Unmarshal accepts it, the file re-marshals to the input byte for byte,
// validates, and is what encoding/xml reads there. And the Marshal output
// of the file generatedFile derives from the input decodes exactly when
// that file validates, to what encoding/xml reads.
func FuzzUnmarshal(f *testing.F) {
	data, _ := Marshal(sampleFile())
	f.Add(data)
	for _, s := range unmarshalSeeds {
		f.Add([]byte(s))
	}
	hostile := sampleFile()
	hostile.Server, hostile.Version = "s\"&<>'\t\n\r\u00fc", "v\ufffd\x7f"
	data, _ = Marshal(hostile)
	f.Add(data)
	f.Add([]byte("srv\"&<>'\t\n\r\u00fc\x00v\xff\x7f\x00\x01\xfa\x02"))
	f.Add([]byte("s\x00\x00\xfb\xfc\xfd\xfe\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if pl, err := Unmarshal(data); err == nil {
			out, err := Marshal(pl)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("accepted body re-marshals differently (%v):\n got %q\nwant %q", err, out, data)
			}
			if err := pl.Validate(); err != nil {
				t.Fatalf("accepted file does not validate: %v", err)
			}
			xmlOracle(t, data, pl, fileHead)
		}
		gen := generatedFile(data)
		body, err := Marshal(gen)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Unmarshal(body)
		if (err == nil) != (gen.Validate() == nil) {
			t.Fatalf("decode error %v, Validate %v:\n%q", err, gen.Validate(), body)
		}
		if err == nil {
			xmlOracle(t, body, pl, fileHead)
		}
	})
}

// validDelta is what UnmarshalDelta promises of a delta it returns: a
// server, and inserted peers that pass Validate.
func validDelta(d *Delta) error {
	f := File{Server: d.Server}
	for i := range d.Ops {
		f.Peers = append(f.Peers, d.Ops[i].Peers...)
	}
	return f.Validate()
}

// FuzzUnmarshalDelta is FuzzUnmarshal for deltas. Whatever UnmarshalDelta
// accepts re-marshals to the input byte for byte, keeps validDelta's
// promise and is what encoding/xml reads. And the delta between two files
// generatedFile derives from the input, keyed by their real ETags, decodes
// from its MarshalDelta output exactly when it keeps that promise.
func FuzzUnmarshalDelta(f *testing.F) {
	old, target := deltaFile("gen-1", 5), deltaFile("gen-2", 7)
	target.Peers[1].QoS = "low"
	d, _ := DiffFiles(old, target)
	wire, _ := MarshalDelta(d)
	f.Add(wire, []byte{})
	f.Add([]byte("<PinglistDelta/>"), []byte("s\x00v\x00\x01\x02\x03"))
	f.Add([]byte(strings.ReplaceAll(string(wire), "></Peer>", "/>")), []byte("s\x00v\x00\x01\x02\xfa\x03"))
	f.Add([]byte("<PinglistDelta v=\"1\" server=\"s\"></PinglistDelta>\n"), []byte("s\"&\x00\xff\x00\x01\xfb\x02"))
	f.Fuzz(func(t *testing.T, data, gen []byte) {
		if x, err := UnmarshalDelta(data); err == nil {
			out, err := MarshalDelta(x)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("accepted delta re-marshals differently (%v):\n got %q\nwant %q", err, out, data)
			}
			if err := validDelta(x); err != nil {
				t.Fatalf("accepted delta breaks its promise: %v", err)
			}
			xmlOracle(t, data, x, deltaHead)
		}
		// The target drops the base's first half of peers, opens with
		// three new ones and carries another version.
		base, target := generatedFile(gen), generatedFile(gen)
		target.Peers = append(generatedFile([]byte{0, 0, 1, 0xfa, 2}).Peers, target.Peers[len(target.Peers)/2:]...)
		target.Version += "'"
		baseData, err := Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		targetData, err := Marshal(target)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Diff(base, target, httpcache.ETagFor(baseData), httpcache.ETagFor(targetData))
		if err != nil {
			t.Fatal(err)
		}
		wire, err := MarshalDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		x, err := UnmarshalDelta(wire)
		if (err == nil) != (validDelta(d) == nil) {
			t.Fatalf("decode error %v, promise %v:\n%q", err, validDelta(d), wire)
		}
		if err == nil {
			xmlOracle(t, wire, x, deltaHead)
		}
	})
}

// FuzzMarshalRoundTrip fuzzes the write side: files constructed from
// arbitrary field values — covering the generator's peer variants (payload
// probes, low-QoS duplicates, HTTP probes, VIP targets) — must survive
// Marshal→Unmarshal with every field intact exactly when they validate,
// and marshaling must be deterministic. This pins the serialized format the conditional-GET
// ETags hash: if Marshal output drifted between controller replicas,
// their ETags would stop agreeing.
func FuzzMarshalRoundTrip(f *testing.F) {
	f.Add("srv-0", "gen-1", int64(1751328000), "10.0.0.2", uint16(8765), "intra-pod", "tcp", "high", 10, 0)
	// Payload variant (Figure 4(d)).
	f.Add("srv-1", "gen-2", int64(1751328060), "10.0.1.2", uint16(8765), "intra-dc", "tcp", "high", 30, 1024)
	// Low-QoS duplicate on the DSCP port (§6.2).
	f.Add("srv-2", "gen-3", int64(1751328120), "10.0.1.3", uint16(8766), "intra-dc", "tcp", "low", 30, 0)
	// HTTP probe.
	f.Add("srv-3", "gen-4", int64(1751328180), "10.0.0.9", uint16(8080), "intra-pod", "http", "high", 10, 128)
	// VIP peer (VIP availability monitoring, §6.2).
	f.Add("vip-prober", "gen-5", int64(1751328240), "10.255.0.1", uint16(80), "intra-dc", "tcp", "high", 60, 0)
	// Hostile field content: XML metacharacters and non-ASCII.
	f.Add("srv<&>", "v\"1\"", int64(-62135596800), "not-an-ip", uint16(0), "über-pod", "udp?", "<qos>", -5, 1<<30)

	f.Fuzz(func(t *testing.T, server, version string, gen int64,
		addr string, port uint16, class, proto, qos string, interval, payload int) {
		in := &File{
			Server:    server,
			Version:   version,
			Generated: time.Unix(gen%(1<<33), 0).UTC(),
			Peers: []Peer{
				{Addr: addr, Port: port, Class: class, Proto: proto, QoS: qos, IntervalSec: interval, PayloadLen: payload},
				// A second peer with swapped-in variant fields exercises
				// multi-peer ordering.
				{Addr: addr, Port: port + 1, Class: class, Proto: proto, QoS: qos, IntervalSec: interval + 1, PayloadLen: payload / 2},
			},
		}
		data, err := Marshal(in)
		if err != nil {
			// xml.Marshal only fails on invalid characters in field
			// content; nothing round-trippable was produced.
			t.Skip()
		}
		again, err := Marshal(in)
		if err != nil || string(again) != string(data) {
			t.Fatalf("Marshal is not deterministic: %v", err)
		}
		// A marshaled file decodes exactly when it validates.
		out, err := Unmarshal(data)
		if (err == nil) != (in.Validate() == nil) {
			t.Fatalf("decode error %v, Validate %v:\n%s", err, in.Validate(), data)
		}
		if err != nil {
			return
		}
		if !xmlSafe(server) || !xmlSafe(version) || !xmlSafe(addr) ||
			!xmlSafe(class) || !xmlSafe(proto) || !xmlSafe(qos) {
			return // escaper replaced runes; lossless equality off the table
		}
		if out.Server != in.Server || out.Version != in.Version || !out.Generated.Equal(in.Generated) {
			t.Fatalf("header mismatch: got %+v want %+v", out, in)
		}
		if len(out.Peers) != len(in.Peers) {
			t.Fatalf("peer count %d, want %d", len(out.Peers), len(in.Peers))
		}
		for i := range in.Peers {
			if out.Peers[i] != in.Peers[i] {
				t.Fatalf("peer %d mismatch: got %+v want %+v", i, out.Peers[i], in.Peers[i])
			}
		}
	})
}

// fileFromBytes derives a pinglist deterministically from fuzz bytes. Each
// byte picks one peer out of a small value space, so arbitrary byte pairs
// produce peer sequences with repeats, shared runs, and disjoint stretches
// — the shapes the delta edit script must handle.
func fileFromBytes(server, version string, seed []byte) *File {
	f := &File{Server: server, Version: version, Generated: time.Unix(1751328000, 0).UTC()}
	if len(seed) > 512 {
		seed = seed[:512]
	}
	classes := [3]string{"intra-pod", "intra-dc", "inter-dc"}
	for _, b := range seed {
		f.Peers = append(f.Peers, Peer{
			Addr:        fmt.Sprintf("10.0.%d.%d", b/64, b%64+1),
			Port:        8765 + uint16(b%4),
			Class:       classes[b%3],
			Proto:       "tcp",
			QoS:         "high",
			IntervalSec: 10 + int(b%3)*10,
			PayloadLen:  int(b%2) * 1024,
		})
	}
	return f
}

// FuzzDeltaPatchVsFull is the differential safety net for the delta
// protocol: for arbitrary pinglist pairs, patching the base with the diff
// must reproduce the freshly marshaled target byte-identically — and a
// corrupted or stale delta must never pass ApplyVerified with wrong bytes;
// it must error out, which is the signal agents use to fall back to a full
// fetch.
func FuzzDeltaPatchVsFull(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{1, 2, 9, 4, 5, 6}, "gen-2", []byte{0xff}, uint16(10))
	f.Add([]byte{}, []byte{7, 7, 7}, "gen-3", []byte{}, uint16(0))
	f.Add([]byte{9, 9, 9, 9}, []byte{}, "gen-4", []byte{1, 2, 3}, uint16(2))
	f.Add([]byte{0, 1, 0, 1, 0, 1}, []byte{1, 0, 1, 0}, "v", []byte{0x3c}, uint16(100))
	f.Fuzz(func(t *testing.T, seedOld, seedNew []byte, version string, corrupt []byte, corruptPos uint16) {
		old := fileFromBytes("srv-f", "gen-1", seedOld)
		target := fileFromBytes("srv-f", version, seedNew)
		oldData, err := Marshal(old)
		if err != nil {
			t.Skip() // invalid XML runes in version
		}
		newData, err := Marshal(target)
		if err != nil {
			t.Skip()
		}
		oldETag := httpcache.ETagFor(oldData)
		d, err := Diff(old, target, oldETag, httpcache.ETagFor(newData))
		if err != nil {
			t.Fatalf("Diff failed for same-server pair: %v", err)
		}
		// Keyed on the marshaled peer lines — how the controller diffs a
		// ringed base — the edit script is the same one.
		dm, err := DiffMarshaled(oldData, newData, target, d.BaseETag, d.TargetETag)
		if err != nil || !reflect.DeepEqual(dm, d) {
			t.Fatalf("line-keyed delta %+v (%v), struct-keyed %+v", dm, err, d)
		}
		wire, err := MarshalDelta(d)
		if err != nil {
			t.Fatalf("delta of marshalable files not marshalable: %v", err)
		}

		// The honest path: patched bytes == freshly marshaled full file.
		d2, err := UnmarshalDelta(wire)
		if err != nil {
			t.Fatalf("delta wire form did not parse: %v\n%s", err, wire)
		}
		_, got, err := ApplyVerified(old, oldETag, d2)
		if err != nil {
			if xmlSafe(version) {
				t.Fatalf("ApplyVerified rejected an honest delta: %v", err)
			}
			return // lossy escaping; the fallback-to-full contract still held
		}
		if string(got) != string(newData) {
			t.Fatalf("patched bytes != full marshal\n got %q\nwant %q", got, newData)
		}

		// A stale base must be rejected outright.
		if _, _, err := ApplyVerified(target, httpcache.ETagFor(newData), d2); err == nil && string(oldData) != string(newData) {
			t.Fatal("delta applied over the wrong base generation")
		}

		// The hostile path: corrupt the wire form; whatever still parses
		// and verifies must STILL produce the exact target bytes (the
		// target ETag binds the content); anything else must error — the
		// fall-back-to-full signal.
		if len(corrupt) == 0 {
			return
		}
		mutated := append([]byte(nil), wire...)
		for i, b := range corrupt {
			mutated[(int(corruptPos)+i*31)%len(mutated)] ^= b
		}
		dc, err := UnmarshalDelta(mutated)
		if err != nil {
			return // corruption detected at parse time
		}
		_, got2, err := ApplyVerified(old, oldETag, dc)
		if err != nil {
			return // corruption detected at verify time: fall back to full
		}
		if string(got2) != string(newData) {
			t.Fatalf("corrupted delta verified but produced wrong bytes\n got %q\nwant %q", got2, newData)
		}
	})
}

// FuzzMarshalMatchesEncodingXML holds the append-based writers to the
// encoder they replaced: for any File and any Delta, Marshal and
// MarshalDelta produce xml.MarshalIndent's bytes plus a newline, and fail
// exactly when it fails. Every ETag in the system hashes these bytes, so
// "equivalent XML" is not enough.
func FuzzMarshalMatchesEncodingXML(f *testing.F) {
	f.Add("srv-0", "gen-1", int64(1751328000), int64(0), int32(0), "10.0.0.2", "intra-pod", "tcp", "high",
		uint16(8765), 10, 0, `"0123"`, `"4567"`, uint8(2), []byte{2, 1, 4})
	// Empty peer list, empty op list.
	f.Add("", "", int64(0), int64(0), int32(0), "", "", "", "", uint16(0), 0, 0, "", "", uint8(0), []byte{})
	// XML metacharacters and whitespace in every string attribute.
	f.Add(`s"&<>'`, "v\t\r\n", int64(1), int64(1), int32(60), `a"&<>'`, "c\t\r\n", `p"&<>'`, "q\t\r\n",
		uint16(1), -1, -1024, "b\"&<>'\t", "t\r\n", uint8(3), []byte{0, 1, 3, 5, 255})
	// Non-ASCII, invalid UTF-8, control bytes and non-characters.
	f.Add("über-\xff", "v\x00\x7f", int64(1751328000), int64(123456789), int32(-3600*7-1800), "\xc3\x28", "pod-é",
		"\ufffe", "\U0001F600", uint16(65535), 1<<31, 1<<40, "\xed\xa0\x80", "\x1f", uint8(1), []byte{1, 1, 7})
	// Non-UTC zones, and timestamps MarshalText refuses.
	f.Add("s", "v", int64(253402300800), int64(999999999), int32(14*3600), "a", "c", "p", "q", uint16(1), 1, 1, "b", "t", uint8(1), []byte{6})
	f.Add("s", "v", int64(-62135596801), int64(5), int32(-25*3600), "a", "c", "p", "q", uint16(1), 1, 1, "b", "t", uint8(1), []byte{9})

	f.Fuzz(func(t *testing.T, server, version string, sec, nsec int64, zone int32,
		addr, class, proto, qos string, port uint16, interval, payload int,
		base, target string, nPeers uint8, ops []byte) {
		file := &File{
			Server:    server,
			Version:   version,
			Generated: time.Unix(sec, nsec).In(time.FixedZone("", int(zone))),
		}
		for i := 0; i < int(nPeers%4); i++ {
			// Rotate the strings through the attributes so each one sees
			// every kind of content.
			vals := [4]string{addr, class, proto, qos}
			file.Peers = append(file.Peers, Peer{
				Addr: vals[i%4], Class: vals[(i+1)%4], Proto: vals[(i+2)%4], QoS: vals[(i+3)%4],
				Port: port + uint16(i), IntervalSec: interval - i, PayloadLen: payload * (1 - i),
			})
		}
		delta := &Delta{
			V: DeltaVersion + int(nPeers/4), Server: server, Version: version,
			Generated: file.Generated, BaseETag: base, TargetETag: target,
		}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		for _, b := range ops {
			// Copy runs, inserts of 0..3 peers, and ops that are (invalidly)
			// both: the writer is not the validator.
			op := Op{From: int(b) - 3, Count: int(b%3) * int(b)}
			if b%2 == 1 {
				op.Peers = file.Peers[:min(int(b/2%4), len(file.Peers))]
			}
			delta.Ops = append(delta.Ops, op)
		}

		check := func(v any, got []byte, err error) {
			t.Helper()
			want, wantErr := xml.MarshalIndent(v, "", "  ")
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%T: error %v, encoding/xml %v", v, err, wantErr)
			}
			if err == nil && string(got) != string(want)+"\n" {
				t.Fatalf("%T differs from encoding/xml:\n got %q\nwant %q", v, got, string(want)+"\n")
			}
		}
		// Bodies are retained for a generation: what the generator can
		// produce (plain ASCII; ETags are quoted) is sized exactly.
		plain := plainASCII(server + version + addr + class + proto + qos)
		got, err := Marshal(file)
		check(file, got, err)
		if err == nil && plain && cap(got) != len(got) {
			t.Fatalf("Marshal left %d bytes of slack on a %d-byte body", cap(got)-len(got), len(got))
		}
		got, err = MarshalDelta(delta)
		check(delta, got, err)
		if err == nil && plain && plainASCII(strings.ReplaceAll(base+target, `"`, "")) && cap(got) != len(got) {
			t.Fatalf("MarshalDelta left %d bytes of slack on a %d-byte body", cap(got)-len(got), len(got))
		}
	})
}
