package scope

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
)

// These tests pin the sketch ingest path to the exact raw-record path: the
// same probes, shipped once as CSV records and once as binary
// sketch-plus-anomalous-raw batches, must produce identical aggregates
// through an ad-hoc job and through the Folder's per-window partials.

// sketchCorpus generates successful and anomalous records across three
// source nets and several 10-minute windows.
func sketchCorpus(n int) []probe.Record {
	recs := make([]probe.Record, 0, n)
	for i := 0; i < n; i++ {
		r := probe.Record{
			Start: t0.Add(time.Duration(i*37) * time.Second),
			Src:   netip.AddrFrom4([4]byte{10, 0, byte(i % 3), 1}),
			Dst:   netip.AddrFrom4([4]byte{10, 0, 9, 9}),
			RTT:   time.Duration(200+i*13) * time.Microsecond,
		}
		switch {
		case i%17 == 0:
			r.Err = "connect: timeout"
			r.RTT = 21 * time.Second
		case i%11 == 0:
			r.RTT = 3 * time.Second // one-retransmit drop signature
		}
		if i%5 == 0 && r.Err == "" {
			r.PayloadRTT = r.RTT + 50*time.Microsecond
		}
		recs = append(recs, r)
	}
	return recs
}

type peerWin struct {
	src, dst netip.Addr
	win      int64
}

// buildSketches splits records the way the agent does: successful,
// non-anomalous probes aggregate into per-(peer, window) sketches cut on
// the 10-minute grid; everything else stays raw.
func buildSketches(recs []probe.Record) (raw []probe.Record, sks []probe.PeerSketch) {
	m := map[peerWin]int{}
	for _, r := range recs {
		if r.Err != "" || analysis.DropSignature(r.RTT) != 0 {
			raw = append(raw, r)
			continue
		}
		k := peerWin{r.Src, r.Dst, int64(r.Start.Sub(t0) / Every10Min)}
		i, ok := m[k]
		if !ok {
			i = len(sks)
			m[k] = i
			sks = append(sks, probe.PeerSketch{
				Src: r.Src, Dst: r.Dst, DstPort: r.DstPort,
				Class: r.Class, Proto: r.Proto, QoS: r.QoS,
				PayloadLen: r.PayloadLen,
				MinStart:   r.Start, MaxStart: r.Start,
				RTT: metrics.NewLatencyHistogram(),
			})
		}
		sk := &sks[i]
		sk.RTT.Observe(r.RTT)
		if r.PayloadRTT > 0 {
			if sk.Payload == nil {
				sk.Payload = metrics.NewLatencyHistogram()
			}
			sk.Payload.Observe(r.PayloadRTT)
		}
		if r.Start.Before(sk.MinStart) {
			sk.MinStart = r.Start
		}
		if r.Start.After(sk.MaxStart) {
			sk.MaxStart = r.Start
		}
	}
	return raw, sks
}

func compareStats(t *testing.T, key string, got, want *analysis.LatencyStats) {
	t.Helper()
	if got.Total() != want.Total() || got.Success() != want.Success() || got.Failed() != want.Failed() {
		t.Fatalf("group %q: counts diverged: got %d/%d/%d want %d/%d/%d", key,
			got.Total(), got.Success(), got.Failed(),
			want.Total(), want.Success(), want.Failed())
	}
	if got.DropRate() != want.DropRate() {
		t.Fatalf("group %q: drop rate %v != %v", key, got.DropRate(), want.DropRate())
	}
	if got.Summary() != want.Summary() {
		t.Fatalf("group %q: rtt summary diverged:\ngot  %v\nwant %v", key, got.Summary(), want.Summary())
	}
	if got.PayloadSummary() != want.PayloadSummary() {
		t.Fatalf("group %q: payload summary diverged:\ngot  %v\nwant %v", key, got.PayloadSummary(), want.PayloadSummary())
	}
}

// TestRunSketchVsExact: a job over sketch-encoded uploads must equal the
// same job over the raw-record uploads — not just within error bounds but
// bucket-for-bucket, because agents and analysis share one histogram layout —
// and each must equal the record-at-a-time reference.
func TestRunSketchVsExact(t *testing.T) {
	recs := sketchCorpus(600)
	raw, sks := buildSketches(recs)

	rawStore, _ := cosmos.NewStore(1, cosmos.Config{ExtentSize: 8 << 10})
	for i := 0; i < len(recs); i += 50 {
		end := min(i+50, len(recs))
		if err := rawStore.Append("pingmesh/d", probe.AppendBatch(nil, recs[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	skStore, _ := cosmos.NewStore(1, cosmos.Config{ExtentSize: 8 << 10})
	if err := skStore.Append("pingmesh/d", probe.AppendBinaryBatch(nil, raw, sks)); err != nil {
		t.Fatal(err)
	}

	job := Job{
		Name: "by-srcnet",
		From: t0, To: t0.Add(4 * Every10Min), // bounded: exercises the window filter on sketches
		Where: func(r *probe.Record) bool { return r.Dst.IsValid() },
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
			return append(dst, 'n', r.Src.As4()[2]), true
		},
	}
	job.Source = Source{Store: rawStore, StreamPrefix: "pingmesh/"}
	exact := runJob(t, job)
	job.Source = Source{Store: skStore, StreamPrefix: "pingmesh/"}
	sketched := runJob(t, job)

	if len(sks) == 0 || sketched.Records != exact.Records || sketched.Scanned != exact.Scanned {
		t.Fatalf("tallies diverged over %d sketches: sketch Records=%d Scanned=%d, exact Records=%d Scanned=%d",
			len(sks), sketched.Records, sketched.Scanned, exact.Records, exact.Scanned)
	}
	if len(sketched.Groups) != len(exact.Groups) {
		t.Fatalf("group sets diverged: %d vs %d", len(sketched.Groups), len(exact.Groups))
	}
	for k, want := range exact.Groups {
		got, ok := sketched.Groups[k]
		if !ok {
			t.Fatalf("sketch pipeline missing group %q", k)
		}
		compareStats(t, k, got, want)
	}
}

// TestFolderSketchVsExact: FoldExtent over a binary extent must produce
// partials deeply equal to folding the raw records — same groups, same
// histogram bytes, same freshness marks.
func TestFolderSketchVsExact(t *testing.T) {
	recs := sketchCorpus(600)
	raw, sks := buildSketches(recs)

	exact := NewFolder(t0, Every10Min, foldSpecs(), nil)
	for i := 0; i < len(recs); i += 50 {
		end := min(i+50, len(recs))
		exact.FoldExtent(probe.AppendBatch(nil, recs[i:end]), t0)
	}
	folded := NewFolder(t0, Every10Min, foldSpecs(), nil)
	folded.FoldExtent(probe.AppendBinaryBatch(nil, raw, sks), t0)

	if folded.Scanned() != exact.Scanned() {
		t.Fatalf("scanned diverged: %d vs %d", folded.Scanned(), exact.Scanned())
	}
	for _, sp := range foldSpecs() {
		for win := int64(0); win < 8; win++ {
			want := exact.Partial(sp.Name, win)
			got := folded.Partial(sp.Name, win)
			if (want == nil) != (got == nil) {
				t.Fatalf("%s win %d: presence diverged (exact %v, sketch %v)", sp.Name, win, want != nil, got != nil)
			}
			if want == nil {
				continue
			}
			if !reflect.DeepEqual(mergeAll(want), mergeAll(got)) {
				t.Fatalf("%s win %d: sketch-folded partial != exact partial", sp.Name, win)
			}
		}
	}
}

// TestFoldExtentSketchZeroAlloc: folding a binary sketch extent must stay
// allocation-free in steady state, like the CSV fold path. Tier-3 guard.
func TestFoldExtentSketchZeroAlloc(t *testing.T) {
	recs := sketchCorpus(400)
	raw, sks := buildSketches(recs)
	data := probe.AppendBinaryBatch(nil, raw, sks)

	f := NewFolder(t0, Every10Min, foldSpecs(), nil)
	f.FoldExtent(data, t0) // warm: window partials, group keys, intern table
	allocs := testing.AllocsPerRun(20, func() {
		f.FoldExtent(data, t0)
	})
	if allocs != 0 {
		t.Fatalf("sketch FoldExtent allocated %.1f/op, want 0", allocs)
	}
}
