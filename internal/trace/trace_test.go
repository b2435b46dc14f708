package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/simclock"
)

func TestSampleProbeDisabled(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 100; i++ {
		if id := tr.SampleProbe(); id != 0 {
			t.Fatalf("disabled tracer sampled probe %d with id %d", i, id)
		}
	}
}

func TestSampleProbeEveryN(t *testing.T) {
	tr := New(nil)
	tr.SetSampleEvery(4)
	var sampled int
	var ids []TraceID
	for i := 0; i < 40; i++ {
		if id := tr.SampleProbe(); id != 0 {
			sampled++
			ids = append(ids, id)
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 probes at 1-in-4, want 10", sampled)
	}
	seen := map[TraceID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("trace id %d issued twice", id)
		}
		seen[id] = true
	}
}

func TestSampleEveryOne(t *testing.T) {
	tr := New(nil)
	tr.SetSampleEvery(1)
	for i := 0; i < 5; i++ {
		if id := tr.SampleProbe(); id == 0 {
			t.Fatalf("1-in-1 sampling missed probe %d", i)
		}
	}
}

func TestProbeTableMatchAndComplete(t *testing.T) {
	tr := New(nil)
	src := netip.MustParseAddr("10.0.1.5")
	other := netip.MustParseAddr("10.0.1.6")

	if tr.HasActiveProbes() {
		t.Fatal("fresh tracer reports active probes")
	}
	tr.RegisterProbe(7, src, 4242, 1000)
	tr.RegisterProbe(8, other, 4242, 1000)
	if !tr.HasActiveProbes() {
		t.Fatal("no active probes after register")
	}
	if got := tr.MatchProbe(src, 4242, 1000); got != 7 {
		t.Fatalf("MatchProbe = %d, want 7", got)
	}
	if got := tr.MatchProbe(other, 4242, 1000); got != 8 {
		t.Fatalf("MatchProbe = %d, want 8", got)
	}
	if got := tr.MatchProbe(src, 4243, 1000); got != 0 {
		t.Fatalf("MatchProbe wrong port = %d, want 0", got)
	}
	if got := tr.MatchProbe(src, 4242, 1001); got != 0 {
		t.Fatalf("MatchProbe wrong start = %d, want 0", got)
	}

	ids := tr.ActiveProbeIDs()
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 8 {
		t.Fatalf("ActiveProbeIDs = %v, want [7 8]", ids)
	}

	tr.CompleteProbes([]TraceID{7})
	if got := tr.MatchProbe(src, 4242, 1000); got != 0 {
		t.Fatalf("completed trace still matches: %d", got)
	}
	if got := tr.MatchProbe(other, 4242, 1000); got != 8 {
		t.Fatalf("uncompleted trace lost: %d", got)
	}
	tr.CompleteProbes([]TraceID{8})
	if tr.HasActiveProbes() {
		t.Fatal("active probes remain after completing all")
	}
}

func TestProbeTableEviction(t *testing.T) {
	tr := New(nil)
	src := netip.MustParseAddr("10.0.0.1")
	for i := 0; i < maxActiveProbes+10; i++ {
		tr.RegisterProbe(TraceID(i+1), src, uint16(i), int64(i))
	}
	tab := tr.ActiveProbeIDs()
	if len(tab) != maxActiveProbes {
		t.Fatalf("table size %d, want bounded at %d", len(tab), maxActiveProbes)
	}
	// Oldest evicted: trace 1..10 gone, 11 survives.
	if got := tr.MatchProbe(src, 0, 0); got != 0 {
		t.Fatalf("oldest entry not evicted: %d", got)
	}
	if got := tr.MatchProbe(src, 10, 10); got != 11 {
		t.Fatalf("entry 11 missing after eviction: %d", got)
	}
}

func TestRegisterZeroIDIgnored(t *testing.T) {
	tr := New(nil)
	tr.RegisterProbe(0, netip.MustParseAddr("10.0.0.1"), 1, 1)
	if tr.HasActiveProbes() {
		t.Fatal("zero trace id registered")
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(nil)
	tr.mu.Lock()
	tr.ringCap = 4
	tr.mu.Unlock()
	r := tr.Ring("test")
	for i := 0; i < 10; i++ {
		r.Record(Span{Trace: TraceID(i), Stage: StageProbe, Start: int64(i), End: int64(i + 1)})
	}
	if r.Len() != 4 {
		t.Fatalf("ring len %d, want 4", r.Len())
	}
	spans := r.Snapshot(nil)
	if len(spans) != 4 {
		t.Fatalf("snapshot len %d, want 4", len(spans))
	}
	for i, s := range spans {
		if want := TraceID(6 + i); s.Trace != want {
			t.Fatalf("span %d trace %d, want %d (oldest-first after wrap)", i, s.Trace, want)
		}
	}
}

func TestRingPartial(t *testing.T) {
	tr := New(nil)
	r := tr.Ring("partial")
	now := time.Now()
	r.Span(3, StageUpload, "batch", now, now.Add(time.Millisecond), true)
	spans := r.Snapshot(nil)
	if len(spans) != 1 {
		t.Fatalf("snapshot len %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Trace != 3 || s.Stage != StageUpload || s.Name != "batch" || !s.OK {
		t.Fatalf("span = %+v", s)
	}
	if s.Duration() != time.Millisecond {
		t.Fatalf("duration = %v, want 1ms", s.Duration())
	}
}

func TestRingSameInstance(t *testing.T) {
	tr := New(nil)
	if tr.Ring("a") != tr.Ring("a") {
		t.Fatal("Ring returned different instances for same component")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(nil)
	ctx := NewContext(context.Background(), tr, 42)
	gotTr, gotID := FromContext(ctx)
	if gotTr != tr || gotID != 42 {
		t.Fatalf("FromContext = (%p, %d), want (%p, 42)", gotTr, gotID, tr)
	}
	if gotTr, gotID := FromContext(context.Background()); gotTr != nil || gotID != 0 {
		t.Fatalf("FromContext on bare ctx = (%v, %d), want (nil, 0)", gotTr, gotID)
	}
}

func TestFreshnessAges(t *testing.T) {
	clock := simclock.NewSim(time.Unix(1000, 0))
	f := NewFreshness(clock)
	if age := f.AgeMillis(StageUpload); age != -1 {
		t.Fatalf("unmarked age = %d, want -1", age)
	}
	if !f.MarkedAt(StageUpload).IsZero() {
		t.Fatal("unmarked MarkedAt not zero")
	}
	f.Mark(StageUpload)
	clock.Advance(90 * time.Second)
	if age := f.AgeMillis(StageUpload); age != 90_000 {
		t.Fatalf("age = %dms, want 90000", age)
	}
}

func TestHealthTransitions(t *testing.T) {
	clock := simclock.NewSim(time.Unix(1000, 0))
	f := NewFreshness(clock)

	// Nothing marked: waiting, no error.
	h := f.Check()
	if h.Status != "waiting" {
		t.Fatalf("boot status = %q, want waiting", h.Status)
	}
	if err := h.Err(); err != nil {
		t.Fatalf("waiting produced error: %v", err)
	}
	if len(h.Stages) != 3 {
		t.Fatalf("monitored stages = %d, want 3 (upload, dsa-cycle, publish)", len(h.Stages))
	}

	// All fresh: ok.
	f.Mark(StageUpload)
	f.Mark(StageDSACycle)
	f.Mark(StagePublish)
	if h := f.Check(); h.Status != "ok" {
		t.Fatalf("fresh status = %q, want ok", h.Status)
	}

	// Upload within budget at 4m, stale at 6m.
	clock.Advance(4 * time.Minute)
	if h := f.Check(); h.Status != "ok" {
		t.Fatalf("4m status = %q, want ok", h.Status)
	}
	clock.Advance(2 * time.Minute)
	h = f.Check()
	if h.Status != "degraded" {
		t.Fatalf("6m status = %q, want degraded", h.Status)
	}
	err := h.Err()
	if err == nil || !errors.Is(err, ErrStale) {
		t.Fatalf("degraded Err = %v, want ErrStale", err)
	}
	var staleStages int
	for _, s := range h.Stages {
		if s.Stale {
			staleStages++
			if s.Stage != "upload" {
				t.Fatalf("stale stage %q, want upload", s.Stage)
			}
		}
	}
	if staleStages != 1 {
		t.Fatalf("stale stages = %d, want 1", staleStages)
	}

	// Mark again: recovers.
	f.Mark(StageUpload)
	if h := f.Check(); h.Status != "ok" {
		t.Fatalf("recovered status = %q, want ok", h.Status)
	}
}

func TestDumpAndTraceSpans(t *testing.T) {
	clock := simclock.NewSim(time.Unix(5000, 0))
	tr := New(clock)
	tr.SetSampleEvery(1)
	id := tr.SampleProbe()

	start := clock.Now()
	clock.Advance(2 * time.Millisecond)
	tr.Ring("agent").Span(id, StageProbe, "10.0.0.2:4200", start, clock.Now(), true)
	start2 := clock.Now()
	clock.Advance(time.Millisecond)
	tr.Ring("scope").SpanAttr(id, StageIngest, "extent-0", start2, clock.Now(), true, "records", 100)
	tr.Ring("agent").Span(0, StageUpload, "untr", start, clock.Now(), true)

	spans := tr.TraceSpans(id)
	if len(spans) != 2 {
		t.Fatalf("TraceSpans len = %d, want 2", len(spans))
	}
	if spans[0].Stage != "probe" || spans[1].Stage != "ingest" {
		t.Fatalf("span order = %s,%s want probe,ingest", spans[0].Stage, spans[1].Stage)
	}
	if spans[1].AttrKey != "records" || spans[1].AttrVal != 100 {
		t.Fatalf("attr = %q=%d", spans[1].AttrKey, spans[1].AttrVal)
	}
	if spans[0].DurationUS != 2000 {
		t.Fatalf("probe duration = %dus, want 2000", spans[0].DurationUS)
	}

	if got := tr.TraceSpans(0); got != nil {
		t.Fatalf("TraceSpans(0) = %v, want nil", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if d.SampleEvery != 1 {
		t.Fatalf("dump sample_every = %d, want 1", d.SampleEvery)
	}
	if len(d.Rings) != 2 || d.Rings[0].Component != "agent" || d.Rings[1].Component != "scope" {
		t.Fatalf("dump rings = %+v, want sorted agent,scope", d.Rings)
	}
	if len(d.Rings[0].Spans) != 2 {
		t.Fatalf("agent ring spans = %d, want 2", len(d.Rings[0].Spans))
	}
}

func TestFormatTraceID(t *testing.T) {
	if got := FormatTraceID(0); got != "" {
		t.Fatalf("FormatTraceID(0) = %q, want empty", got)
	}
	if got := FormatTraceID(0xab); got != "000000ab" {
		t.Fatalf("FormatTraceID(0xab) = %q", got)
	}
}

func TestConcurrentTracerUse(t *testing.T) {
	tr := New(nil)
	tr.SetSampleEvery(2)
	src := netip.MustParseAddr("10.0.0.1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := tr.Ring("agent")
			for i := 0; i < 500; i++ {
				if id := tr.SampleProbe(); id != 0 {
					tr.RegisterProbe(id, src, uint16(i), int64(g*1000+i))
					now := time.Now()
					r.Span(id, StageProbe, "t", now, now, true)
					tr.CompleteProbes([]TraceID{id})
				}
				tr.MatchProbe(src, uint16(i), int64(i))
				tr.HasActiveProbes()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tr.Dump()
			tr.Freshness().Mark(StageUpload)
			tr.Freshness().Check()
		}
	}()
	wg.Wait()
}

func TestStageString(t *testing.T) {
	want := []string{"probe", "netprobe", "encode", "upload", "ingest", "scope-job", "dsa-cycle", "publish"}
	for s := Stage(0); s < numStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("Stage(%d).String() = %q, want %q", s, s.String(), want[s])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage name")
	}
}
