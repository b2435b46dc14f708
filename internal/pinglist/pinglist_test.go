package pinglist

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
	"time"
)

func sampleFile() *File {
	return &File{
		Server:    "DC1-ps00-pod00-s00",
		Generated: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
		Version:   "v42",
		Peers: []Peer{
			{Addr: "10.0.0.2", Port: 8765, Class: "intra-pod", Proto: "tcp", QoS: "high", IntervalSec: 10},
			{Addr: "10.0.1.2", Port: 8765, Class: "intra-dc", Proto: "tcp", QoS: "high", IntervalSec: 30, PayloadLen: 1024},
			{Addr: "10.1.0.2", Port: 8080, Class: "inter-dc", Proto: "http", QoS: "low", IntervalSec: 60},
		},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := sampleFile()
	data, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Server != f.Server || got.Version != f.Version || !got.Generated.Equal(f.Generated) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Peers) != len(f.Peers) {
		t.Fatalf("peer count %d, want %d", len(got.Peers), len(f.Peers))
	}
	for i := range f.Peers {
		if got.Peers[i] != f.Peers[i] {
			t.Fatalf("peer %d mismatch: %+v vs %+v", i, got.Peers[i], f.Peers[i])
		}
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := sampleFile().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []func(*File){
		func(f *File) { f.Server = "" },
		func(f *File) { f.Peers[0].Addr = "notanip" },
		func(f *File) { f.Peers[0].Port = 0 },
		func(f *File) { f.Peers[0].Class = "weird" },
		func(f *File) { f.Peers[0].Proto = "udp" },
		func(f *File) { f.Peers[0].QoS = "medium" },
		func(f *File) { f.Peers[0].IntervalSec = 0 },
		func(f *File) { f.Peers[0].PayloadLen = -1 },
	}
	for i, mut := range mutations {
		f := sampleFile()
		mut(f)
		if err := f.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid file", i)
		}
	}
}

func TestPeerParsedFields(t *testing.T) {
	p := sampleFile().Peers[2]
	addr, cls, proto, qos, err := p.Parse()
	if err != nil || addr.String() != p.Addr || cls.String() != "inter-dc" || proto.String() != "http" || qos.String() != "low" {
		t.Fatalf("Parse: %v %v %v %v %v", addr, cls, proto, qos, err)
	}
	if p.Interval() != 60*time.Second {
		t.Fatalf("Interval = %v", p.Interval())
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not xml at all")); err == nil {
		t.Fatal("Unmarshal accepted garbage")
	}
}

// TestUnmarshalRejectsNonCanonical: Unmarshal reads a pinglist only in the
// exact form Marshal writes, and only when it validates. Another spelling
// of the same document is an error — an agent marshals its cached file
// again to get a delta's base, which must be the body it was sent — and so
// are the bodies FuzzUnmarshal was first seeded with.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	good, err := Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(good); err != nil {
		t.Fatalf("Marshal output rejected: %v", err)
	}
	s := string(good)
	compact, err := xml.Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"compact":       string(compact),
		"self-closing":  strings.Replace(s, "></Peer>", "/>", 1),
		"reordered":     strings.Replace(s, `port="8765" class="intra-pod"`, `class="intra-pod" port="8765"`, 1),
		"single-quotes": strings.Replace(s, `version="v42"`, `version='v42'`, 1),
		"no-newline":    strings.TrimSuffix(s, "\n"),
		"trailing":      s + "\n",
		"port-70000":    strings.Replace(s, `port="8765"`, `port="70000"`, 1),
		"interval-0":    strings.Replace(s, `interval="10"`, `interval="0"`, 1),
		"unknown-class": strings.Replace(s, `class="intra-pod"`, `class="intra-pods"`, 1),
		"raw-tab":       strings.Replace(s, `version="v42"`, "version=\"v\t42\"", 1),
		"raw-gt":        strings.Replace(s, `version="v42"`, `version="v>42"`, 1),
		"named-quot":    strings.Replace(s, `version="v42"`, `version="v&quot;42"`, 1),
		"invalid-utf8":  strings.Replace(s, `version="v42"`, "version=\"v\xff42\"", 1),
		"zero-padded":   strings.Replace(s, `port="8765"`, `port="08765"`, 1),
		"port-0":        strings.Replace(s, `port="8765"`, `port="0"`, 1),
		"payload-neg":   strings.Replace(s, `payload="1024"`, `payload="-1024"`, 1),
		"bad-addr":      strings.Replace(s, `addr="10.0.0.2"`, `addr="10.0.0.256"`, 1),
		"no-server":     strings.Replace(s, `server="DC1-ps00-pod00-s00"`, `server=""`, 1),
		"fraction":      strings.Replace(s, `12:00:00Z`, `12:00:00.0Z`, 1),
	}
	for i, seed := range unmarshalSeeds {
		cases[fmt.Sprintf("seed-%d", i)] = seed
	}
	for name, body := range cases {
		if body == s {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if f, err := Unmarshal([]byte(body)); err == nil {
			t.Errorf("%s accepted: %+v", name, f)
		}
	}
}

// TestUnmarshalAllocs pins what a decode allocates: a constant number of
// objects, whatever the number of peers. The peers share one backing
// array and their addresses one string.
func TestUnmarshalAllocs(t *testing.T) {
	for _, n := range []int{1, 54, 600} {
		body, err := Marshal(deltaFile("gen-2", n))
		if err != nil {
			t.Fatal(err)
		}
		// File, peers, addresses (buffer, string, ends), server, version.
		if got := testing.AllocsPerRun(20, func() { Unmarshal(body) }); got > 7 {
			t.Errorf("%d peers: Unmarshal allocates %.0f objects, want at most 7", n, got)
		}
	}
}

func TestMarshalIsValidXMLWithAttrs(t *testing.T) {
	data, err := Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"<Pinglist", `server="DC1-ps00-pod00-s00"`, `class="intra-pod"`, `payload="1024"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("marshal output missing %q:\n%s", want, s)
		}
	}
}

// TestGoldenWireFormat pins the exact XML bytes of a pinglist: the file is
// the only coupling between controller and agents (§6.2), so its wire
// format must not drift silently across refactors.
func TestGoldenWireFormat(t *testing.T) {
	f := &File{
		Server:    "DC1-ps00-pod00-s00",
		Generated: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
		Version:   "gen-7",
		Peers: []Peer{
			{Addr: "10.0.0.2", Port: 8765, Class: "intra-pod", Proto: "tcp", QoS: "high", IntervalSec: 10},
			{Addr: "10.0.1.9", Port: 8765, Class: "intra-dc", Proto: "tcp", QoS: "low", IntervalSec: 30, PayloadLen: 1000},
		},
	}
	golden := `<Pinglist server="DC1-ps00-pod00-s00" generated="2026-07-01T12:00:00Z" version="gen-7">
  <Peer addr="10.0.0.2" port="8765" class="intra-pod" proto="tcp" qos="high" interval="10" payload="0"></Peer>
  <Peer addr="10.0.1.9" port="8765" class="intra-dc" proto="tcp" qos="low" interval="30" payload="1000"></Peer>
</Pinglist>
`
	got, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("wire format drifted:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
