package diagnosis

import (
	"strings"
	"testing"
	"time"

	"pingmesh/internal/analysis"
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
	sla  *SLAFacts
	cell *CellFacts
}

func (f *fakeEvidence) PairSLA(src, dst topology.ServerID) *SLAFacts   { return f.sla }
func (f *fakeEvidence) PairCell(src, dst topology.ServerID) *CellFacts { return f.cell }
func (f *fakeEvidence) Ranking() *Ranking                              { return nil }

func TestEngineAllDependenciesMissing(t *testing.T) {
	top := testTop(t)
	e := &Engine{Top: top}
	ch := e.Diagnose(0, 3, nil)
	if ch.Verdict != analysis.VerdictInconclusive {
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
	ev := &fakeEvidence{sla: &SLAFacts{Scope: "dc/DC1", Probes: 5000, P99: 3 * time.Millisecond,
		Verdict: analysis.VerdictNetwork, Reason: "packet drop rate 0.002 exceeds 0.001"}}
	ch := e.Diagnose(0, 3, ev)
	if ch.Verdict != analysis.VerdictNetwork {
		t.Fatalf("violated SLA: verdict = %q, want network", ch.Verdict)
	}
	ev.sla.Verdict = analysis.VerdictNotNetwork
	ch = e.Diagnose(0, 3, ev)
	if ch.Verdict != analysis.VerdictNotNetwork {
		t.Fatalf("healthy SLA: verdict = %q, want not-network", ch.Verdict)
	}
	// A row below the probe floor is no evidence either way.
	ev.sla.Verdict = analysis.VerdictInconclusive
	ch = e.Diagnose(0, 3, ev)
	if ch.Verdict != analysis.VerdictInconclusive || stepVerdict(ch, AssertPairSLA) != StepSkip {
		t.Fatalf("below-floor SLA: verdict = %q, step %q; want inconclusive, skip", ch.Verdict, stepVerdict(ch, AssertPairSLA))
	}
}

func TestEngineCellStep(t *testing.T) {
	top := testTop(t)
	e := &Engine{Top: top}
	ev := &fakeEvidence{cell: &CellFacts{Probes: 900, P99: 9 * time.Millisecond, Color: "red", Floor: 100}}
	ch := e.Diagnose(0, 3, ev)
	if ch.Verdict != analysis.VerdictNetwork {
		t.Fatalf("red cell: verdict = %q, want network", ch.Verdict)
	}
	ev.cell.Probes = 99
	ch = e.Diagnose(0, 3, ev)
	if v := stepVerdict(ch, AssertCell); v != StepSkip {
		t.Fatalf("unjudgeable cell verdict = %q, want skip", v)
	}
}

// TestDecide pins the §4.3 decision table case by case — every SLA outcome
// against every cell outcome — and shows that a chain with nothing else
// wired answers exactly what the table does.
func TestDecide(t *testing.T) {
	slas := []struct {
		name string
		f    *SLAFacts
		step string
	}{
		{"violated", &SLAFacts{Scope: "dc/DC1", Probes: 5000, Verdict: analysis.VerdictNetwork, Reason: "packet drop rate 0.002 exceeds 0.001"}, StepFail},
		{"within", &SLAFacts{Scope: "dc/DC1", Probes: 5000, Verdict: analysis.VerdictNotNetwork, Reason: "within SLA"}, StepPass},
		{"below-floor", &SLAFacts{Scope: "dc/DC1", Probes: 150, Verdict: analysis.VerdictInconclusive, Reason: "60 successful probes, below the 100-probe floor"}, StepSkip},
		{"absent", nil, StepSkip},
	}
	cells := []struct {
		name    string
		f       *CellFacts
		crossDC bool
		step    string
	}{
		{"red", &CellFacts{Probes: 400, P99: 9 * time.Millisecond, Color: "red", Floor: 100}, false, StepFail},
		{"yellow", &CellFacts{Probes: 400, P99: 3 * time.Millisecond, Color: "yellow", Floor: 100}, false, StepPass},
		{"green", &CellFacts{Probes: 400, P99: time.Millisecond, Color: "green", Floor: 100}, false, StepPass},
		{"below-floor", &CellFacts{Probes: 99, P99: 9 * time.Millisecond, Color: "red", Floor: 100}, false, StepSkip},
		{"absent", nil, false, StepSkip},
		{"cross-DC", nil, true, StepSkip},
	}
	const (
		N = analysis.VerdictNetwork
		P = analysis.VerdictNotNetwork
		I = analysis.VerdictInconclusive
	)
	want := [4][6]string{
		//  red yellow green below absent cross-DC
		{N, N, N, N, N, N}, // SLA violated
		{N, P, P, P, P, P}, // SLA within
		{N, P, P, I, I, I}, // SLA below floor
		{N, P, P, I, I, I}, // SLA absent
	}

	top := topology.SmallTestbed()
	sameDC := [2]topology.ServerID{top.DCs[0].Podsets[0].Pods[0].Servers[0], top.DCs[0].Podsets[1].Pods[0].Servers[0]}
	crossDC := [2]topology.ServerID{sameDC[0], top.DCs[1].Podsets[0].Pods[0].Servers[0]}
	e := &Engine{Top: top}
	for i, sla := range slas {
		for j, cell := range cells {
			name := "sla " + sla.name + ", cell " + cell.name
			d := Decide(sla.f, cell.f, cell.crossDC)
			if d.Verdict != want[i][j] || d.SLA.Verdict != sla.step || d.Cell.Verdict != cell.step {
				t.Errorf("%s: verdict %q, steps %s/%s; want %q, %s/%s",
					name, d.Verdict, d.SLA.Verdict, d.Cell.Verdict, want[i][j], sla.step, cell.step)
			}
			if d.SLA.Assertion != AssertPairSLA || d.Cell.Assertion != AssertCell || d.Reason == "" {
				t.Errorf("%s: steps %q/%q, reason %q", name, d.SLA.Assertion, d.Cell.Assertion, d.Reason)
			}
			if d.Verdict == analysis.VerdictNetwork && d.Reason != d.SLA.Detail && d.Reason != d.Cell.Detail {
				t.Errorf("%s: network reason %q is neither step's detail", name, d.Reason)
			}

			pair := sameDC
			if cell.crossDC {
				pair = crossDC
			}
			ch := e.Diagnose(pair[0], pair[1], &fakeEvidence{sla: sla.f, cell: cell.f})
			if ch.Verdict != d.Verdict || ch.Steps[0] != d.SLA || ch.Steps[1] != d.Cell {
				t.Errorf("%s: chain answers %q with steps %+v, the table %q with %+v, %+v",
					name, ch.Verdict, ch.Steps[:2], d.Verdict, d.SLA, d.Cell)
			}
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
	if ch.Verdict != analysis.VerdictNetwork {
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
	if ch.Verdict != analysis.VerdictInconclusive {
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
