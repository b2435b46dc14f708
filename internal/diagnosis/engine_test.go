package diagnosis

import (
	"strings"
	"testing"
	"time"

	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

func testTop(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{{
		Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 2,
		LeavesPerPodset: 2, Spines: 2,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

type fakeEvidence struct {
	sla    SLAFacts
	slaOK  bool
	cell   CellFacts
	cellOK bool
}

func (f *fakeEvidence) PairSLA(src, dst topology.ServerID) (SLAFacts, bool) { return f.sla, f.slaOK }
func (f *fakeEvidence) Ranking() *Ranking                                   { return nil }
func (f *fakeEvidence) PairCell(src, dst topology.ServerID) (CellFacts, bool) {
	return f.cell, f.cellOK
}

func TestEngineAllDependenciesMissing(t *testing.T) {
	top := testTop(t)
	e := &Engine{Top: top}
	ch := e.Diagnose(0, 3, nil)
	if ch.Verdict != VerdictInconclusive {
		t.Fatalf("verdict = %q, want inconclusive", ch.Verdict)
	}
	if len(ch.Steps) != 5 {
		t.Fatalf("got %d steps, want 5", len(ch.Steps))
	}
	for _, st := range ch.Steps {
		if st.Verdict != StepSkip {
			t.Fatalf("step %s verdict = %q, want skip with nothing wired", st.Assertion, st.Verdict)
		}
	}
}

func TestEngineSLAVerdicts(t *testing.T) {
	top := testTop(t)
	e := &Engine{Top: top}
	ev := &fakeEvidence{
		sla:   SLAFacts{Scope: "dc/DC1", Probes: 5000, P99: 3 * time.Millisecond, Violated: true},
		slaOK: true,
	}
	ch := e.Diagnose(0, 3, ev)
	if ch.Verdict != VerdictNetwork {
		t.Fatalf("violated SLA: verdict = %q, want network", ch.Verdict)
	}
	ev.sla.Violated = false
	ch = e.Diagnose(0, 3, ev)
	if ch.Verdict != VerdictNotNetwork {
		t.Fatalf("healthy SLA: verdict = %q, want not-network", ch.Verdict)
	}
}

func TestEngineCellStep(t *testing.T) {
	top := testTop(t)
	e := &Engine{Top: top}
	ev := &fakeEvidence{
		cell:   CellFacts{Probes: 900, P99: 9 * time.Millisecond, Color: "red", Judgeable: true},
		cellOK: true,
	}
	ch := e.Diagnose(0, 3, ev)
	if ch.Verdict != VerdictNetwork {
		t.Fatalf("red cell: verdict = %q, want network", ch.Verdict)
	}
	ev.cell.Judgeable = false
	ch = e.Diagnose(0, 3, ev)
	for _, st := range ch.Steps {
		if st.Assertion == AssertCell && st.Verdict != StepSkip {
			t.Fatalf("unjudgeable cell verdict = %q, want skip", st.Verdict)
		}
	}
}

// TestEnginePinsInjectedDrop runs the full chain against the fabric
// simulator: a lossy leaf must be pinned by the TTL sweep and named in
// the chain, with the modeled path rendered.
func TestEnginePinsInjectedDrop(t *testing.T) {
	top := testTop(t)
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DefaultProfiles()[0]}})
	if err != nil {
		t.Fatal(err)
	}
	leaf := top.DCs[0].Podsets[0].Leaves[0]
	net.SetRandomDrop(leaf, 0.10, true)

	e := &Engine{Top: top, Paths: net, Tracer: net, Seed: 42}
	// Same-podset, cross-pod pair: path is srcToR -> leaf -> dstToR.
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[0].Pods[1].Servers[0]

	// The pair's tuples may all hash to the healthy leaf; scan dsts until
	// the chain pins. With 2 leaves and ECMP coverage in the pin step the
	// first pair should already cross it.
	ch := e.Diagnose(src, dst, nil)
	if ch.Verdict != VerdictNetwork {
		t.Fatalf("verdict = %q, want network; chain: %+v", ch.Verdict, ch.Steps)
	}
	if ch.PinnedHop != top.Switch(leaf).Name {
		t.Fatalf("pinned %q, want %q", ch.PinnedHop, top.Switch(leaf).Name)
	}
	if len(ch.Path) == 0 {
		t.Fatal("chain has no modeled path")
	}
	found := false
	for _, st := range ch.Steps {
		if st.Assertion == AssertTracePin && st.Verdict == StepFail {
			if !strings.Contains(st.Detail, top.Switch(leaf).Name) {
				t.Fatalf("pin detail %q does not name the leaf", st.Detail)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no failing traceroute-pin step")
	}
}

func TestEngineCleanFabricNoPin(t *testing.T) {
	top := testTop(t)
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DefaultProfiles()[0]}})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Top: top, Paths: net, Tracer: net, Seed: 7}
	ch := e.Diagnose(0, 3, nil)
	if ch.PinnedHop != "" {
		t.Fatalf("clean fabric pinned %q", ch.PinnedHop)
	}
	if ch.Verdict != VerdictInconclusive {
		t.Fatalf("verdict = %q, want inconclusive (no SLA evidence)", ch.Verdict)
	}
}

func TestEngineRepairBudgetStep(t *testing.T) {
	top := testTop(t)
	remaining := 2
	e := &Engine{Top: top, Budget: func() (int, int) { return remaining, 20 }}
	ch := e.Diagnose(0, 3, nil)
	if v := stepVerdict(ch, AssertRepairBudg); v != StepPass {
		t.Fatalf("budget step = %q, want pass", v)
	}
	remaining = 0
	ch = e.Diagnose(0, 3, nil)
	if v := stepVerdict(ch, AssertRepairBudg); v != StepFail {
		t.Fatalf("exhausted budget step = %q, want fail", v)
	}
	e2 := &Engine{Top: top, Budget: func() (int, int) { return 0, 0 }}
	ch = e2.Diagnose(0, 3, nil)
	if v := stepVerdict(ch, AssertRepairBudg); v != StepSkip {
		t.Fatalf("unwired budget step = %q, want skip", v)
	}
}

func stepVerdict(ch *Chain, assertion string) string {
	for _, st := range ch.Steps {
		if st.Assertion == assertion {
			return st.Verdict
		}
	}
	return ""
}

// TestTopSuspectThreshold exercises the votes-only summary /triage uses.
func TestTopSuspectThreshold(t *testing.T) {
	top := testTop(t)
	col := NewCollector(CollectorConfig{Top: top})
	e := &Engine{Top: top, Votes: col}
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[0].Pods[1].Servers[0]
	if name, _, ok := e.TopSuspect(src, dst, nil); ok {
		t.Fatalf("empty collector nominated %q", name)
	}
	// Synthesize failures pinned on the dst ToR via exact paths.
	tor := top.ToROf(dst)
	leaf := top.DCs[0].Podsets[0].Leaves[0]
	srcToR := top.ToROf(src)
	for i := 0; i < 50; i++ {
		col.ObservePath([]topology.SwitchID{srcToR, leaf, tor}, true)
	}
	for i := 0; i < 50; i++ {
		col.ObservePath([]topology.SwitchID{srcToR, leaf, tor}, false)
	}
	name, score, ok := e.TopSuspect(src, dst, nil)
	if !ok {
		t.Fatal("suspect not nominated")
	}
	if name != top.Switch(tor).Name && name != top.Switch(srcToR).Name && name != top.Switch(leaf).Name {
		t.Fatalf("suspect = %q, not on the pair's path", name)
	}
	if score <= 0 {
		t.Fatalf("score = %v, want > 0", score)
	}
}

func BenchmarkDiagnoseChain(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{{
		Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 2,
		LeavesPerPodset: 2, Spines: 2,
	}}})
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DefaultProfiles()[0]}})
	if err != nil {
		b.Fatal(err)
	}
	e := &Engine{Top: top, Paths: net, Tracer: net, Seed: 13, ProbesPerHop: 50}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Diagnose(0, 3, nil)
	}
}
