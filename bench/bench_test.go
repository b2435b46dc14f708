package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// chdirTemp runs the test in a scratch directory, so a traced run's span
// dump does not land in the source tree.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// asserts only the correctness verdicts and that every named metric is
// reported and finite: the end-to-end ones by every workload, each per-layer
// one by at least the workloads its layer takes part in. Timings are not
// asserted.
func TestSmoke(t *testing.T) {
	reported := map[string]bool{"trace.overhead_pct": true} // needs both kinds of epoch; see TestTracedRun
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var rec *recorder
			if traced {
				rec = newRecorder(name, spanCapacity)
			}
			ep, err := runEpoch(name, "smoke", 1, rec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if ep.failed != 0 || ep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, ep.failed, ep.attempted, ep.failures)
			}
			for k, v := range ep.metrics {
				reported[k] = true
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v", name, k, v)
				}
			}
			for _, d := range endToEnd {
				if v := ep.metrics[d.name]; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
			if traced && math.Abs(sumShares(ep.layers)-1) > 1e-4 {
				t.Errorf("%s: layer shares sum to %v, want 1", name, sumShares(ep.layers))
			}
		}
	}
	for _, d := range perLayer {
		if !reported[d.name] {
			t.Errorf("no workload reported per-layer metric %s", d.name)
		}
	}
}

func sumShares(m map[string]float64) (s float64) {
	for _, v := range m {
		s += v
	}
	return s
}

// TestTracedRun covers the document a traced run assembles: every per-layer
// metric by name, the overhead pair, and the span dump.
func TestTracedRun(t *testing.T) {
	chdirTemp(t)
	doc, err := runWorkload("steady_sketch", "smoke", 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Result.Correct || doc.Epochs != 2 {
		t.Fatalf("correct=%v epochs=%d failures=%v", doc.Result.Correct, doc.Epochs, doc.Failures)
	}
	for _, d := range perLayer {
		if v, ok := doc.Result.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
			t.Errorf("metric %s: %+v present=%v", d.name, v, ok)
		}
	}
	data, err := os.ReadFile(filepath.Join("out", "trace-steady_sketch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span dump: %d spans, %v", len(spans), err)
	}
}

// TestCatalogueMatchesContract pins BENCHMARK.json to the metric and
// workload names the program reports.
func TestCatalogueMatchesContract(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("contract has %d workloads, program %d", len(contract.Workloads), len(workloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: contract %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: contract has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s %d: contract %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)
}

// TestLayerWall checks the self-time arithmetic on a hand-built trace: a
// 100 ms root with a 40 ms sequential phase and a 60 ms two-lane phase whose
// lanes were busy 60 and 40 ms.
func TestLayerWall(t *testing.T) {
	r := newRecorder("w", 8)
	at := func(ms int) time.Time { return r.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := r.open(0, benchLayer, "window", 0, 1, at(0))
	r.add(root, "dsa", "cycle10", 0, at(0), at(40), 0, 0)
	phase := r.open(root, benchLayer, "agent_stage", 0, 2, at(40))
	r.add(phase, "probe", "encode", 0, at(40), at(100), 0, 0)
	r.add(phase, "cosmos", "append", 0, at(40), at(80), 0, 0)
	r.close(phase, at(100), 0, 0)
	r.close(root, at(100), 0, 0)
	got, roots := r.layerWall()
	want := map[string]time.Duration{"dsa": 40, "probe": 30, "cosmos": 20, idleLayer: 10, benchLayer: 0}
	if roots != 100*time.Millisecond {
		t.Errorf("roots = %v", roots)
	}
	for layer, ms := range want {
		if got[layer] != ms*time.Millisecond {
			t.Errorf("%s = %v, want %vms", layer, got[layer], int(ms))
		}
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles(n=4).
func TestSpread(t *testing.T) {
	vs := []float64{10, 12, 11, 13, 9, 14, 10, 12, 11, 15}
	// quantiles(vs, n=4) == [10.0, 11.5, 13.25]
	if got, want := spread(vs), (13.25-10.0)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestOracleQuantile checks the exact quantile and its tolerance.
func TestOracleQuantile(t *testing.T) {
	tl := &tally{rtts: []int64{100, 200, 300, 400}}
	if got := tl.exactQuantile(0.5); got != 200 {
		t.Errorf("p50 = %d, want 200", got)
	}
	if got := tl.exactQuantile(0.99); got != 400 {
		t.Errorf("p99 = %d, want 400", got)
	}
	if !withinOneBucket(1050, 1000) || withinOneBucket(1200, 1000) || !withinOneBucket(0, 0) || withinOneBucket(0, 5) {
		t.Error("withinOneBucket tolerance is off")
	}
}
