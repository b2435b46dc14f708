package pinglist

import (
	"encoding/xml"
	"reflect"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/httpcache"
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

// roundTrip diffs old→new through the wire format and asserts the patched
// bytes equal the freshly marshaled target exactly.
func roundTrip(t *testing.T, old, target *File) *Delta {
	t.Helper()
	oldData, err := Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := Marshal(target)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(old, target, httpcache.ETagFor(oldData), httpcache.ETagFor(wantData))
	if err != nil {
		t.Fatal(err)
	}
	// The controller never parses a base: keyed on the marshaled peer
	// lines, the script must be the one the parsed files give.
	dm, err := DiffMarshaled(oldData, wantData, target, d.BaseETag, d.TargetETag)
	if err != nil || !reflect.DeepEqual(dm, d) {
		t.Fatalf("line-keyed delta %+v (%v), struct-keyed %+v", dm, err, d)
	}
	wire, err := MarshalDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := UnmarshalDelta(wire)
	if err != nil {
		t.Fatalf("delta did not round trip: %v\n%s", err, wire)
	}
	_, got, err := ApplyVerified(old, httpcache.ETagFor(oldData), d2)
	if err != nil {
		t.Fatalf("ApplyVerified: %v", err)
	}
	if string(got) != string(wantData) {
		t.Fatalf("patched bytes differ from target:\n got %q\nwant %q", got, wantData)
	}
	return d2
}

func TestDeltaAddRemoveModify(t *testing.T) {
	old := deltaFile("gen-1", 40)

	t.Run("header-only", func(t *testing.T) {
		target := deltaFile("gen-2", 40)
		d := roundTrip(t, old, target)
		// Unchanged peers: the whole script is one copy run.
		if len(d.Ops) != 1 || d.Ops[0].Count != 40 {
			t.Fatalf("header-only delta ops = %+v, want one full copy", d.Ops)
		}
	})
	t.Run("append", func(t *testing.T) {
		target := deltaFile("gen-2", 44)
		d := roundTrip(t, old, target)
		if len(d.Ops) != 2 || d.Ops[0].Count != 40 || len(d.Ops[1].Peers) != 4 {
			t.Fatalf("append delta ops = %+v", d.Ops)
		}
	})
	t.Run("remove-tail", func(t *testing.T) {
		target := deltaFile("gen-2", 30)
		d := roundTrip(t, old, target)
		if len(d.Ops) != 1 || d.Ops[0].Count != 30 {
			t.Fatalf("remove delta ops = %+v", d.Ops)
		}
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
		d := roundTrip(t, old, target)
		// Two modifications: copy, insert, copy, insert, copy.
		if len(d.Ops) != 5 {
			t.Fatalf("modify delta has %d ops, want 5: %+v", len(d.Ops), d.Ops)
		}
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
		// Repeated peers: a copy run must start at the lowest base
		// position not yet passed, never behind it.
		base := deltaFile("gen-1", 6)
		base.Peers = append(base.Peers, base.Peers[1], base.Peers[1], base.Peers[4])
		target := deltaFile("gen-2", 6)
		target.Peers = []Peer{target.Peers[1], target.Peers[1], target.Peers[4], target.Peers[1], target.Peers[0], target.Peers[1]}
		roundTrip(t, base, target)
	})
	t.Run("empty-target", func(t *testing.T) {
		target := deltaFile("gen-2", 0)
		roundTrip(t, old, target)
	})
	t.Run("empty-base", func(t *testing.T) {
		roundTrip(t, deltaFile("gen-1", 0), deltaFile("gen-2", 12))
	})
}

// TestDeltaSmallerThanFull pins the point of the protocol: for localized
// churn the delta wire form is a small fraction of the full file.
func TestDeltaSmallerThanFull(t *testing.T) {
	old := deltaFile("gen-1", 500)
	target := deltaFile("gen-2", 504) // rolling update appends four peers
	fullData, _ := Marshal(target)
	d := roundTrip(t, old, target)
	wire, _ := MarshalDelta(d)
	if len(wire)*10 > len(fullData) {
		t.Fatalf("delta %d bytes vs full %d: not >=10x smaller", len(wire), len(fullData))
	}
}

func TestApplyVerifiedRejects(t *testing.T) {
	old := deltaFile("gen-1", 20)
	target := deltaFile("gen-2", 22)
	oldData, _ := Marshal(old)
	oldETag := httpcache.ETagFor(oldData)
	good, err := DiffFiles(old, target)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong-version", func(t *testing.T) {
		d := *good
		d.V = DeltaVersion + 1
		if _, _, err := ApplyVerified(old, oldETag, &d); err == nil {
			t.Fatal("future wire version accepted")
		}
	})
	t.Run("stale-base", func(t *testing.T) {
		if _, _, err := ApplyVerified(old, `"someotheretag"`, good); err == nil {
			t.Fatal("stale base accepted")
		}
	})
	t.Run("corrupted-ops", func(t *testing.T) {
		d := *good
		d.Ops = append([]Op(nil), good.Ops...)
		d.Ops[0] = Op{From: 0, Count: 19} // drop a peer the target has
		if _, _, err := ApplyVerified(old, oldETag, &d); err == nil {
			t.Fatal("corrupted script passed target-ETag verification")
		}
	})
	t.Run("out-of-range-copy", func(t *testing.T) {
		d := *good
		d.Ops = []Op{{From: 10, Count: 1000}}
		if _, _, err := ApplyVerified(old, oldETag, &d); err == nil {
			t.Fatal("out-of-range copy accepted")
		}
	})
	t.Run("wrong-header", func(t *testing.T) {
		d := *good
		d.Version = "gen-9999" // header is hashed, so the ETag check catches it
		if _, _, err := ApplyVerified(old, oldETag, &d); err == nil {
			t.Fatal("tampered header passed verification")
		}
	})
}

// TestDeltaWireShape sanity-checks the document format so protocol drift
// is visible in review, not just in hashes.
func TestDeltaWireShape(t *testing.T) {
	old := deltaFile("gen-1", 3)
	target := deltaFile("gen-2", 4)
	d, err := DiffFiles(old, target)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := MarshalDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	s := string(wire)
	for _, want := range []string{"<PinglistDelta", `v="1"`, `server="srv-1"`, `version="gen-2"`, `base="`, `target="`, "<Op", "<Peer"} {
		if !strings.Contains(s, want) {
			t.Fatalf("delta wire form missing %q:\n%s", want, s)
		}
	}
}

// TestDiffMarshaledRejectsForeignBase: the line-keyed diff trusts a base
// only in the exact form Marshal writes; anything else is an error (the
// controller counts it and serves the full body), never a guessed patch.
func TestDiffMarshaledRejectsForeignBase(t *testing.T) {
	target := deltaFile("gen-2", 3)
	targetData, _ := Marshal(target)
	compact, err := xml.Marshal(deltaFile("gen-1", 3)) // same document, no indentation
	if err != nil {
		t.Fatal(err)
	}
	good, _ := Marshal(deltaFile("gen-1", 3))
	other := deltaFile("gen-1", 3)
	other.Server = "srv-2"
	otherData, _ := Marshal(other)
	for name, base := range map[string]string{
		"empty":        "",
		"compact":      string(compact),
		"no-newline":   strings.TrimSuffix(string(good), "\n"),
		"truncated":    string(good[:len(good)/2]),
		"self-closing": strings.ReplaceAll(string(good), "></Peer>", "/>"),
		"other-root":   strings.ReplaceAll(string(good), "Pinglist", "Pinglisp"),
		"other-server": string(otherData),
	} {
		if d, err := DiffMarshaled([]byte(base), targetData, target, `"a"`, `"b"`); err == nil {
			t.Errorf("%s base accepted: %+v", name, d)
		}
	}
	if _, err := DiffMarshaled(good, good, target, `"a"`, `"b"`); err != nil {
		t.Errorf("marshaled base rejected: %v", err)
	}
	if _, err := DiffMarshaled(good, targetData, deltaFile("gen-2", 4), `"a"`, `"b"`); err == nil {
		t.Error("target bytes that are not Marshal(new) accepted")
	}
}

// TestEditScriptKeysMayCollide: DiffMarshaled keys peer lines by a hash
// and leaves equality to same(i, j), so a key shared by different peers
// must not change the script. Every key colliding is the extreme case.
func TestEditScriptKeysMayCollide(t *testing.T) {
	base := deltaFile("gen-1", 12)
	base.Peers = append(base.Peers, base.Peers[1], base.Peers[1], base.Peers[4])
	target := deltaFile("gen-2", 12)
	target.Peers[7].IntervalSec = 60
	target.Peers = append(target.Peers[:3:3], append([]Peer{target.Peers[1], target.Peers[9]}, target.Peers[5:]...)...)
	exact := editScript(base.Peers, target.Peers, nil, target.Peers)
	same := func(i, j int) bool { return base.Peers[i] == target.Peers[j] }
	collided := editScript(make([]int8, len(base.Peers)), make([]int8, len(target.Peers)), same, target.Peers)
	if !reflect.DeepEqual(collided, exact) {
		t.Fatalf("colliding keys give %+v, exact keys %+v", collided, exact)
	}
	if len(exact) < 3 {
		t.Fatalf("script %+v does not mix copies and inserts", exact)
	}
}

// TestGoldenDeltaWireFormat pins the exact bytes of a delta document, as
// TestGoldenWireFormat does for the pinglist itself.
func TestGoldenDeltaWireFormat(t *testing.T) {
	d := &Delta{
		V:          DeltaVersion,
		Server:     "DC1-ps00-pod00-s00",
		Version:    "gen-8",
		Generated:  time.Date(2026, 7, 1, 12, 5, 0, 0, time.UTC),
		BaseETag:   `"00112233445566778899aabbccddeeff"`,
		TargetETag: `"ffeeddccbbaa99887766554433221100"`,
		Ops: []Op{
			{From: 0, Count: 53},
			{Peers: []Peer{
				{Addr: "10.0.9.2", Port: 8765, Class: "intra-dc", Proto: "tcp", QoS: "high", IntervalSec: 30},
				{Addr: "10.0.9.6", Port: 8766, Class: "intra-dc", Proto: "tcp", QoS: "low", IntervalSec: 30, PayloadLen: 1000},
			}},
			{From: 54, Count: 1},
		},
	}
	golden := `<PinglistDelta v="1" server="DC1-ps00-pod00-s00" version="gen-8" generated="2026-07-01T12:05:00Z" base="&#34;00112233445566778899aabbccddeeff&#34;" target="&#34;ffeeddccbbaa99887766554433221100&#34;">
  <Op from="0" count="53"></Op>
  <Op from="0" count="0">
    <Peer addr="10.0.9.2" port="8765" class="intra-dc" proto="tcp" qos="high" interval="30" payload="0"></Peer>
    <Peer addr="10.0.9.6" port="8766" class="intra-dc" proto="tcp" qos="low" interval="30" payload="1000"></Peer>
  </Op>
  <Op from="54" count="1"></Op>
</PinglistDelta>
`
	got, err := MarshalDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("delta wire format drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
