package pinglist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"
)

// deltaFile builds a pinglist with n synthetic peers, version v.
func deltaFile(v string, n int) *File {
	f := &File{Server: "srv-1", Version: v, Generated: time.Unix(1751328000, 0).UTC()}
	for i := 0; i < n; i++ {
		f.Peers = append(f.Peers, Peer{
			Addr:        "10.0." + string(rune('0'+i/250)) + "." + itoa(i%250+2),
			Port:        8765,
			Class:       "intra-dc",
			Proto:       "tcp",
			QoS:         "high",
			IntervalSec: 30,
		})
	}
	return f
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// sharedWriter is reused by every roundTrip, as an UpdateTopology worker
// reuses one for all its deltas.
var sharedWriter DeltaWriter

// roundTrip builds the delta from old to target with the shared writer and
// asserts that a fresh writer builds the same bytes and that patching the
// old body rebuilds the target's exactly.
func roundTrip(t *testing.T, old, target *File) []byte {
	t.Helper()
	oldData, err := Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := Marshal(target)
	if err != nil {
		t.Fatal(err)
	}
	d := sharedWriter.Append(nil, oldData, wantData)
	if fresh := new(DeltaWriter).Append(nil, oldData, wantData); !bytes.Equal(d, fresh) {
		t.Fatalf("a reused writer built %d bytes, a fresh one %d different ones", len(d), len(fresh))
	}
	got, err := Patch(oldData, d)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if !bytes.Equal(got, wantData) {
		t.Fatalf("patched bytes differ from target:\n got %q\nwant %q", got, wantData)
	}
	return d
}

func TestDeltaAddRemoveModify(t *testing.T) {
	old := deltaFile("gen-1", 40)

	t.Run("header-only", func(t *testing.T) {
		// Every peer line is a back-reference into the base.
		if d := roundTrip(t, old, deltaFile("gen-2", 40)); len(d) > 128 {
			t.Fatalf("header-only delta is %d bytes, want at most 128", len(d))
		}
	})
	t.Run("append", func(t *testing.T) {
		roundTrip(t, old, deltaFile("gen-2", 44))
	})
	t.Run("remove-tail", func(t *testing.T) {
		roundTrip(t, old, deltaFile("gen-2", 30))
	})
	t.Run("remove-middle", func(t *testing.T) {
		target := deltaFile("gen-2", 40)
		target.Peers = append(target.Peers[:10:10], target.Peers[15:]...)
		roundTrip(t, old, target)
	})
	t.Run("modify", func(t *testing.T) {
		target := deltaFile("gen-2", 40)
		target.Peers[7].IntervalSec = 60
		target.Peers[23].Port = 9999
		roundTrip(t, old, target)
	})
	t.Run("insert-middle", func(t *testing.T) {
		target := deltaFile("gen-2", 40)
		extra := Peer{Addr: "10.9.9.9", Port: 8765, Class: "intra-dc", Proto: "tcp", QoS: "high", IntervalSec: 30}
		target.Peers = append(target.Peers[:20:20], append([]Peer{extra}, target.Peers[20:]...)...)
		roundTrip(t, old, target)
	})
	t.Run("disjoint", func(t *testing.T) {
		target := deltaFile("gen-2", 10)
		for i := range target.Peers {
			target.Peers[i].Port = 7000 + uint16(i)
		}
		roundTrip(t, old, target)
	})
	t.Run("duplicates", func(t *testing.T) {
		base := deltaFile("gen-1", 6)
		base.Peers = append(base.Peers, base.Peers[1], base.Peers[1], base.Peers[4])
		target := deltaFile("gen-2", 6)
		target.Peers = []Peer{target.Peers[1], target.Peers[1], target.Peers[4], target.Peers[1], target.Peers[0], target.Peers[1]}
		roundTrip(t, base, target)
	})
	t.Run("empty-target", func(t *testing.T) {
		roundTrip(t, old, deltaFile("gen-2", 0))
	})
	t.Run("empty-base", func(t *testing.T) {
		roundTrip(t, deltaFile("gen-1", 0), deltaFile("gen-2", 12))
	})
}

// TestDeltaSmallerThanFull pins the point of the protocol: for localized
// churn the delta is a small fraction of the deflated full body, which is
// what the controller weighs it against (as gzip), and the bigger the file
// the smaller the fraction — at the benchmark's 54 peers (6.5 KB), at 500
// (56 KB) and at a deployment's 2,000 (220 KB), far past DEFLATE's 32 KB
// window.
func TestDeltaSmallerThanFull(t *testing.T) {
	for _, c := range []struct{ peers, times int }{{54, 5}, {500, 20}, {2000, 50}} {
		old := deltaFile("gen-1", c.peers)
		target := deltaFile("gen-2", c.peers+4) // a rolling update appends four peers
		fullData, _ := Marshal(target)
		var deflated bytes.Buffer
		zw, _ := flate.NewWriter(&deflated, flate.BestSpeed)
		zw.Write(fullData)
		zw.Close()
		if d := roundTrip(t, old, target); len(d)*c.times > deflated.Len() {
			t.Errorf("%d peers: delta %d bytes vs deflated full body %d: not ≥ %dx smaller", c.peers, len(d), deflated.Len(), c.times)
		}
	}
}

// TestDeltaWireShape: a copy names any offset of the base, so a 2,000-peer
// file (220 KB) that changes its header, loses the middle peer and gains
// four at the end is a handful of ops, its unchanged runs one copy each,
// not a copy per 32 KB.
func TestDeltaWireShape(t *testing.T) {
	old := deltaFile("gen-1", 2000)
	target := deltaFile("gen-2", 2004)
	target.Peers = append(target.Peers[:1000:1000], target.Peers[1001:]...)
	base, _ := Marshal(old)
	ops := decodeOps(t, base, roundTrip(t, old, target))
	var long int
	for _, o := range ops {
		if o.lit == nil && o.n > 100_000 {
			long++
		}
	}
	if long != 2 || len(ops) > 20 {
		t.Fatalf("%d ops, %d copies over 100 KB; want at most 20 ops and the two unchanged runs whole", len(ops), long)
	}
}

// TestGoldenDeltaWireFormat pins a delta's ops byte for byte, as
// TestGoldenWireFormat does the pinglist itself: what the writer chooses
// and how Patch reads it. From three peers at gen-1 to four at gen-2:
//
//	8f 01 00     copy 71 from 0+0: the header up to version="gen-
//	08 "2\">\n"  literal 4
//	95 05 08     copy 330 from 71+4: the three peers
//	2b db 01     copy 21 from 401-110: the third peer's prefix, "  <Peer addr=\"10.0.0."
//	02 "5"       literal 1
//	c9 01 02     copy 100 from 316+1: its suffix and </Pinglist>
func TestGoldenDeltaWireFormat(t *testing.T) {
	const golden = "\x8f\x01\x00\b2\">\n\x95\x05\b+\xdb\x01\x025\xc9\x01\x02"
	base, _ := Marshal(deltaFile("gen-1", 3))
	target, _ := Marshal(deltaFile("gen-2", 4))
	ops, err := io.ReadAll(flate.NewReader(bytes.NewReader(new(DeltaWriter).Append(nil, base, target))))
	if err != nil {
		t.Fatal(err)
	}
	if string(ops) != golden {
		t.Fatalf("delta ops drifted:\n got %q\nwant %q", ops, golden)
	}
	if got, err := Patch(base, deflateOps(golden)); err != nil || !bytes.Equal(got, target) {
		t.Fatalf("the golden ops rebuild %q, %v", got, err)
	}
}

// TestPatchRejects: a delta that is not one whole DEFLATE stream of whole
// ops, that copies from outside its base, or that inflates past
// MaxPatched, is an error — the agent's signal to download the full body.
func TestPatchRejects(t *testing.T) {
	old, _ := Marshal(deltaFile("gen-1", 20))
	target, _ := Marshal(deltaFile("gen-2", 22))
	good := new(DeltaWriter).Append(nil, old, target)

	var bomb bytes.Buffer
	zw, _ := flate.NewWriter(&bomb, flate.BestSpeed)
	if _, err := io.CopyN(zw, zeros{}, MaxPatched+1); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	for name, delta := range map[string][]byte{
		"empty":             nil,
		"truncated":         good[:len(good)/2],
		"trailing-bytes":    append(bytes.Clone(good), 0),
		"not-deflate":       []byte(strings.Repeat("<Pinglist>", 8)),
		"past-the-cap":      bomb.Bytes(),
		"stored-overflow":   {0x01, 0xff, 0xff, 0x00, 0x00},
		"zero-length-op":    deflateOps("\x00"),
		"corrupted-ops":     deflateOps("\x08ab"), // a 4-byte literal with 2 left
		"unended-varint":    deflateOps("\x8f"),
		"out-of-range-copy": deflateOps("\x03" + string(binary.AppendVarint(nil, int64(len(old))))),
		"copy-before-base":  deflateOps("\x03\x01"),
		"copy-past-the-cap": deflateOps(string(binary.AppendUvarint(nil, (MaxPatched+1)<<1|1)) + "\x00"),
	} {
		t.Run(name, func(t *testing.T) {
			if body, err := Patch(old, delta); err == nil {
				t.Errorf("patched to %d bytes, want an error", len(body))
			}
		})
	}
}

// deflateOps is a delta holding ops as they are.
func deflateOps(ops string) []byte {
	var b bytes.Buffer
	zw, _ := flate.NewWriter(&b, flate.BestSpeed)
	zw.Write([]byte(ops))
	zw.Close()
	return b.Bytes()
}

// decodeOps returns the ops of delta, a delta from base.
func decodeOps(t *testing.T, base, delta []byte) []op {
	t.Helper()
	ops, _, err := parseOps(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
