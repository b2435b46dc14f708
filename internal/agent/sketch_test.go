package agent

import (
	"context"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

func sketchConfig(clock simclock.Clock, fu Uploader) Config {
	cfg := testConfig(&fakeFetcher{results: []fetchResult{{f: testFile("v1", 1)}}}, &fakeProber{}, clock)
	cfg.Uploader = fu
	return cfg
}

// scanUpload decodes one uploaded batch into raw records and sketches.
func scanUpload(t *testing.T, data []byte) ([]probe.Record, []probe.Sketch) {
	t.Helper()
	var sc probe.Scanner
	sc.Reset(data)
	var recs []probe.Record
	var sks []probe.Sketch
	for {
		kind := sc.ScanEntry()
		if kind == probe.EntryEOF {
			break
		}
		if err := sc.RowErr(); err != nil {
			t.Fatalf("row error in uploaded batch: %v", err)
		}
		switch kind {
		case probe.EntryRecord:
			r := *sc.Record()
			r.Err = string(append([]byte(nil), r.Err...)) // un-alias interned string
			recs = append(recs, r)
		case probe.EntrySketch:
			sk := *sc.Sketch()
			sk.RTT, sk.Payload = sk.RTT.Clone(), sk.Payload.Clone() // the scanner's scratch
			sks = append(sks, sk)
		}
	}
	return recs, sks
}

// TestSketchModeFlushMatchesExact: an agent's upload, folded back
// into LatencyStats, must equal Add-ing every probe result raw — and the
// anomalies (failures, drop signatures, over-threshold RTTs) must ship as
// raw records so they keep per-record identity.
func TestSketchModeFlushMatchesExact(t *testing.T) {
	clock := simclock.NewSim(epoch)
	fu := &fakeUploader{}
	a, err := New(sketchConfig(clock, fu))
	if err != nil {
		t.Fatal(err)
	}

	exact := analysis.NewLatencyStats()
	var wantRaw int
	add := func(r probe.Record) {
		exact.Add(&r)
		if r.Err != "" || analysis.DropSignature(r.RTT) != 0 || r.RTT >= time.Second {
			wantRaw++
		}
		a.record(r)
	}
	for i := 0; i < 200; i++ {
		add(probe.Record{Start: epoch.Add(time.Duration(i) * time.Second), Src: agentAddr, Dst: peerAddr,
			RTT: time.Duration(200+i) * time.Microsecond})
	}
	add(probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, RTT: 21 * time.Second, Err: "connect timeout"})
	add(probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, RTT: 3 * time.Second})         // drop signature
	add(probe.Record{Start: epoch, Src: agentAddr, Dst: peerAddr, RTT: 1500 * time.Millisecond}) // a second or more

	if n := len(a.BufferedRecords()); n != wantRaw {
		t.Fatalf("raw buffer has %d records, want only the %d anomalies", n, wantRaw)
	}

	a.flush(context.Background(), true)
	if fu.batchCount() != 1 {
		t.Fatalf("batchCount = %d", fu.batchCount())
	}
	recs, sks := scanUpload(t, fu.batches[0])
	if len(recs) != wantRaw {
		t.Fatalf("uploaded %d raw records, want %d", len(recs), wantRaw)
	}
	if len(sks) == 0 {
		t.Fatal("no sketches uploaded")
	}
	got := analysis.NewLatencyStats()
	for i := range recs {
		got.Add(&recs[i])
	}
	for i := range sks {
		got.AddSketch(&sks[i])
	}
	if got.Total() != exact.Total() || got.Failed() != exact.Failed() {
		t.Fatalf("counts diverged: got %d/%d want %d/%d", got.Total(), got.Failed(), exact.Total(), exact.Failed())
	}
	if got.Summary() != exact.Summary() {
		t.Fatalf("summary diverged:\ngot  %v\nwant %v", got.Summary(), exact.Summary())
	}
	if got.DropRate() != exact.DropRate() {
		t.Fatalf("drop rate diverged: %v vs %v", got.DropRate(), exact.DropRate())
	}

	snap := a.Metrics().Snapshot()
	if snap.Counters["agent.upload_raw_records"] != int64(wantRaw) {
		t.Fatalf("upload_raw_records = %d, want %d", snap.Counters["agent.upload_raw_records"], wantRaw)
	}
	if snap.Counters["agent.upload_sketches"] != int64(len(sks)) {
		t.Fatalf("upload_sketches = %d, want %d", snap.Counters["agent.upload_sketches"], len(sks))
	}
	if uint64(snap.Counters["agent.uploaded_records"]) != exact.Total() {
		t.Fatalf("uploaded_records = %d, want %d (raw + summarized)", snap.Counters["agent.uploaded_records"], exact.Total())
	}
}

// TestSketchWindowCutsOnGrid: a periodic flush ships only windows the grid
// has moved past; the open window keeps accumulating. Each (peer, window)
// therefore uploads exactly one sketch.
func TestSketchWindowCutsOnGrid(t *testing.T) {
	clock := simclock.NewSim(epoch)
	fu := &fakeUploader{}
	a, err := New(sketchConfig(clock, fu))
	if err != nil {
		t.Fatal(err)
	}
	a.record(probe.Record{Start: clock.Now(), Src: agentAddr, Dst: peerAddr, RTT: time.Millisecond})

	// Mid-window flush: nothing to ship — the only sketch window is open.
	clock.Advance(5 * time.Minute)
	a.flush(context.Background(), false)
	if fu.batchCount() != 0 {
		t.Fatalf("mid-window flush shipped %d batches, want 0", fu.batchCount())
	}
	if len(a.sketch.slots) != 1 {
		t.Fatalf("accumulator holds %d sketches, want 1", len(a.sketch.slots))
	}

	// Cross the 10-minute grid boundary: the window is complete, ship it.
	clock.Advance(6 * time.Minute)
	a.record(probe.Record{Start: clock.Now(), Src: agentAddr, Dst: peerAddr, RTT: time.Millisecond})
	a.flush(context.Background(), false)
	if fu.batchCount() != 1 {
		t.Fatalf("post-window flush shipped %d batches, want 1", fu.batchCount())
	}
	recs, sks := scanUpload(t, fu.batches[0])
	if len(recs) != 0 || len(sks) != 1 {
		t.Fatalf("got %d records + %d sketches, want 0 + 1", len(recs), len(sks))
	}
	if sks[0].Records() != 1 {
		t.Fatalf("sketch summarizes %d probes, want 1", sks[0].Records())
	}
	// The second probe's window is still open.
	if len(a.sketch.slots) != 1 {
		t.Fatalf("accumulator holds %d sketches after cut, want 1", len(a.sketch.slots))
	}
}

// TestUploadPolicy pins what leaves an agent in which form: failed probes,
// probes of a second or more, the 3 s and 9 s drop signatures and the probes
// of a sampled trace ship raw at the next flush; healthy probes ship only in
// their window's sketches, and an open window only in the final flush.
func TestUploadPolicy(t *testing.T) {
	clock := simclock.NewSim(epoch)
	fu := &fakeUploader{}
	cfg := sketchConfig(clock, fu)
	cfg.Tracer = trace.New(clock)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		rtt  time.Duration
		err  string
		raw  bool
	}{
		{name: "healthy", rtt: 300 * time.Microsecond},
		{name: "just under a second", rtt: time.Second - time.Nanosecond},
		{name: "failed", rtt: 21 * time.Second, err: "connect timeout", raw: true},
		{name: "a second", rtt: time.Second, raw: true},
		{name: "3 s signature", rtt: 3*time.Second + 400*time.Microsecond, raw: true},
		{name: "9 s signature", rtt: 9*time.Second + 400*time.Microsecond, raw: true},
		{name: "traced", rtt: 300 * time.Microsecond, raw: true},
	}
	wantRaw := map[uint16]string{} // by source port, the case's index
	wantSketched := 0
	for i, c := range cases {
		r := probe.Record{Start: epoch.Add(time.Duration(i) * time.Second), Src: agentAddr, SrcPort: uint16(i),
			Dst: peerAddr, RTT: c.rtt, Err: c.err}
		if c.name == "traced" {
			cfg.Tracer.RegisterProbe(1, r.Src, r.SrcPort, r.Start.UnixNano())
		}
		if c.raw != (ShipsRaw(&r) || c.name == "traced") {
			t.Fatalf("%s: ShipsRaw = %v", c.name, ShipsRaw(&r))
		}
		if c.raw {
			wantRaw[r.SrcPort] = c.name
		} else {
			wantSketched++
		}
		a.record(r)
	}

	clock.Advance(5 * time.Minute)
	a.flush(context.Background(), false)
	if fu.batchCount() != 1 {
		t.Fatalf("mid-window flush shipped %d batches, want 1", fu.batchCount())
	}
	recs, sks := scanUpload(t, fu.batches[0])
	if len(sks) != 0 {
		t.Fatalf("mid-window flush cut %d sketches of the open window", len(sks))
	}
	for i := range recs {
		if _, ok := wantRaw[recs[i].SrcPort]; !ok {
			t.Fatalf("%s probe shipped raw", cases[recs[i].SrcPort].name)
		}
		delete(wantRaw, recs[i].SrcPort)
	}
	if len(wantRaw) != 0 {
		t.Fatalf("not shipped raw: %v", wantRaw)
	}

	a.flush(context.Background(), true)
	if fu.batchCount() != 2 {
		t.Fatalf("final flush shipped %d batches, want 1", fu.batchCount()-1)
	}
	recs, sks = scanUpload(t, fu.batches[1])
	if len(recs) != 0 || len(sks) != 1 || sks[0].Records() != uint64(wantSketched) {
		t.Fatalf("final flush shipped %d raw records and %d sketches, want one sketch of %d probes", len(recs), len(sks), wantSketched)
	}
}

// TestNoUploaderKeepsNoRecords: without an uploader nothing is sketched,
// buffered or dropped, however many probes past the buffer's bound arrive;
// the counters still see every probe.
func TestNoUploaderKeepsNoRecords(t *testing.T) {
	clock := simclock.NewSim(epoch)
	a, err := New(sketchConfig(clock, nil))
	if err != nil {
		t.Fatal(err)
	}
	const n = maxBufferedRecords + 10
	for i := 0; i < n; i++ {
		r := probe.Record{Start: epoch.Add(time.Duration(i) * time.Second), Src: agentAddr, Dst: peerAddr, RTT: time.Millisecond}
		if i%2 == 1 {
			r.Err = "timeout" // would ship raw
		}
		a.record(r)
	}
	clock.Advance(time.Hour)
	a.flush(context.Background(), true)
	c := a.Metrics().Snapshot().Counters
	if n := len(a.BufferedRecords()); n != 0 || a.sketch != nil {
		t.Fatalf("agent without an uploader holds %d raw records (sketch accumulator %v)", n, a.sketch != nil)
	}
	if c["agent.records_dropped"] != 0 || c["agent.probes_total"] != n || c["agent.probes_failed"] != n/2 {
		t.Fatalf("counters: dropped %d, total %d, failed %d; want 0, %d, %d",
			c["agent.records_dropped"], c["agent.probes_total"], c["agent.probes_failed"], n, n/2)
	}
}

// TestWrappedRingUploadsOldestFirst: a raw buffer that wrapped while uploads
// were stalled ships what it kept in probe order.
func TestWrappedRingUploadsOldestFirst(t *testing.T) {
	clock := simclock.NewSim(epoch)
	fu := &fakeUploader{}
	a, err := New(sketchConfig(clock, fu))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxBufferedRecords+13; i++ {
		a.record(probe.Record{Start: epoch.Add(time.Duration(i) * time.Second), Src: agentAddr, Dst: peerAddr, Err: "timeout"})
	}
	a.flush(context.Background(), false)
	recs, _ := scanUpload(t, fu.batches[0])
	if len(recs) != maxBufferedRecords {
		t.Fatalf("uploaded %d records, want the %d kept", len(recs), maxBufferedRecords)
	}
	for i := range recs {
		if want := epoch.Add(time.Duration(13+i) * time.Second); !recs[i].Start.Equal(want) {
			t.Fatalf("record %d starts %v, want %v", i, recs[i].Start, want)
		}
	}
	if n := len(a.BufferedRecords()); n != 0 {
		t.Fatalf("%d records left after the flush", n)
	}
}

// TestSketchFlushSteadyStateZeroAlloc: after warmup, a sketch-mode flush
// reuses its pooled encode buffer and sketch scratch — the encode itself
// must not allocate. (The upload side and map churn are exercised
// elsewhere; this pins the pooled-buffer contract for the binary path.)
func TestSketchFlushSteadyStateZeroAlloc(t *testing.T) {
	clock := simclock.NewSim(epoch)
	fu := &fakeUploader{}
	a, err := New(sketchConfig(clock, fu))
	if err != nil {
		t.Fatal(err)
	}
	fill := func() {
		base := clock.Now()
		for i := 0; i < 64; i++ {
			a.record(probe.Record{Start: base, Src: agentAddr, Dst: peerAddr,
				RTT: time.Duration(200+i) * time.Microsecond})
		}
	}
	// Warm: freelist histograms, pendingSketches scratch, encode buffer,
	// and the fakeUploader's batches slice.
	for i := 0; i < 3; i++ {
		fill()
		clock.Advance(10 * time.Minute)
		a.flush(context.Background(), false)
	}
	fu.mu.Lock()
	fu.batches = fu.batches[:0]
	fu.mu.Unlock()
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		clock.Advance(10 * time.Minute)
		a.flush(context.Background(), false)
		fu.mu.Lock()
		fu.batches = fu.batches[:0]
		fu.mu.Unlock()
	})
	// The fakeUploader copies the batch (one alloc) and the sim clock's
	// timer path may allocate; everything under the agent's control must
	// not. Allow the copy, nothing more.
	if allocs > 2 {
		t.Fatalf("sketch flush allocated %.1f/op in steady state", allocs)
	}
}
