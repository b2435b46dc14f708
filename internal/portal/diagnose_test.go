package portal

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/core"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// buildDiagRig is buildRig with the diagnosis subsystem wired: the vote
// collector ingests the probe stream, the pipeline publishes its ranking
// into snapshots, and the portal carries the evidence-chain engine.
func buildDiagRig(t testing.TB, mutate func(*netsim.Network)) (*rig, *diagnosis.Engine) {
	t.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(n)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		t.Fatal(err)
	}
	col := diagnosis.NewCollector(diagnosis.CollectorConfig{Top: top, Paths: n})
	runner := &fleet.Runner{Net: n, Lists: lists, Seed: 9}
	err = runner.Run(t0, t0.Add(30*time.Minute), func(src topology.ServerID, recs []probe.Record) {
		if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
			t.Error(err)
		}
		col.ObserveBatch(recs)
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(t0.Add(time.Hour))
	pipe, err := dsa.New(dsa.Config{
		Store: store, Top: top, Clock: clock, HeatmapMinProbes: 3,
		Diagnosis: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	engine := &diagnosis.Engine{
		Top: top, Votes: col, Paths: n, Tracer: n, Clock: clock, Seed: 11,
	}
	p := New(Config{Pipeline: pipe, Top: top, Clock: clock, Diagnosis: engine})
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	return &rig{top: top, net: n, clock: clock, pipe: pipe, portal: p}, engine
}

func TestDiagnoseDisabled(t *testing.T) {
	r := buildRig(t, nil) // no engine wired
	w := get(t, r.portal.Handler(), "/diagnose?src=a&dst=b", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == "" {
		t.Fatal("404 body has no error field")
	}
}

func TestDiagnoseParamValidation(t *testing.T) {
	r, _ := buildDiagRig(t, nil)
	h := r.portal.Handler()
	srv := r.top.Servers()[0].Name
	for _, path := range []string{
		"/diagnose?src=" + srv,
		"/diagnose?dst=" + srv,
		"/diagnose?src=" + srv + "&dst=not-a-server",
		"/diagnose?src=not-a-server&dst=" + srv,
	} {
		if w := get(t, h, path, nil); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", path, w.Code)
		}
	}
}

func TestDiagnoseBeforeFirstSnapshot(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Top: top, Diagnosis: &diagnosis.Engine{Top: top}})
	a := top.Servers()[0].Name
	b := top.Servers()[3].Name
	w := get(t, p.Handler(), "/diagnose?src="+a+"&dst="+b, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 before first snapshot", w.Code)
	}
}

// TestDiagnoseCachedRanking: a bare GET /diagnose serves the epoch's
// pre-rendered ranking through the httpcache path, epoch header included.
func TestDiagnoseCachedRanking(t *testing.T) {
	r, _ := buildDiagRig(t, nil)
	w := get(t, r.portal.Handler(), "/diagnose", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	if w.Header().Get(epochHeaderKey) == "" {
		t.Fatal("cached ranking body has no epoch header")
	}
	var doc struct {
		Observed   uint64 `json:"observed"`
		Candidates []struct {
			Switch string `json:"switch"`
		} `json:"candidates"`
		Query string `json:"query"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Observed == 0 {
		t.Fatal("ranking observed no probes")
	}
	if doc.Query == "" {
		t.Fatal("ranking body has no query hint")
	}
}

// TestDiagnoseChainJSON runs the full pair chain over HTTP against a clean
// fabric and checks the chain schema.
func TestDiagnoseChainJSON(t *testing.T) {
	r, _ := buildDiagRig(t, nil)
	a := r.top.Servers()[0].Name
	b := r.top.DCs[0].Podsets[1].Pods[0].Servers[0]
	w := get(t, r.portal.Handler(), "/diagnose?src="+a+"&dst="+r.top.Server(b).Name, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", w.Code, w.Body.String())
	}
	if w.Header().Get(epochHeaderKey) == "" {
		t.Fatal("chain response has no epoch header")
	}
	var ch struct {
		Src     string `json:"src"`
		Dst     string `json:"dst"`
		Verdict string `json:"verdict"`
		Steps   []struct {
			Assertion string `json:"assertion"`
			Verdict   string `json:"verdict"`
		} `json:"steps"`
		Path []string `json:"path"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Src != a {
		t.Fatalf("chain src = %q, want %q", ch.Src, a)
	}
	if ch.Verdict == "" || len(ch.Steps) == 0 {
		t.Fatalf("chain missing verdict or steps: %+v", ch)
	}
	if len(ch.Path) == 0 {
		t.Fatal("chain has no modeled path (tracer is wired)")
	}
}

// TestTriageCarriesDiagnosePointer: with the engine wired, /triage links
// to the full chain for the same pair.
func TestTriageCarriesDiagnosePointer(t *testing.T) {
	r, _ := buildDiagRig(t, nil)
	a := r.top.Servers()[0].Name
	b := r.top.DCs[0].Podsets[1].Pods[0].Servers[0]
	w := get(t, r.portal.Handler(), "/triage?src="+a+"&dst="+r.top.Server(b).Name, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", w.Code)
	}
	var res struct {
		Diagnose string `json:"diagnose"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Diagnose == "" {
		t.Fatal("/triage has no diagnose pointer with the engine wired")
	}
}

// craftedRig publishes exactly recs: one 10-minute cycle, and the hourly
// one if hourly is set, behind a portal whose diagnosis engine has nothing
// but the topology — its chain is then the first two steps alone.
func craftedRig(t *testing.T, top *topology.Topology, hourly bool, recs []probe.Record) *Portal {
	t.Helper()
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(t0.Add(time.Hour))
	pipe, err := dsa.New(dsa.Config{Store: store, Top: top, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(t0, t0.Add(10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if hourly {
		if err := pipe.RunHourly(t0, t0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	p := New(Config{Pipeline: pipe, Top: top, Clock: clock, Diagnosis: &diagnosis.Engine{Top: top}})
	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTriageIsTheChainsFirstTwoSteps: for the same pair in the same epoch,
// /triage and /diagnose?src=&dst= give the same verdict, and it is the one
// the SLA row's verdict and the cell call for — below the probe floor
// counted over successful probes, as the DSA alerts.
func TestTriageIsTheChainsFirstTwoSteps(t *testing.T) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pod := func(ps, p int) topology.ServerID { return top.DCs[0].Podsets[ps].Pods[p].Servers[0] }
	// probes appends n probes src->dst with the given outcome.
	probes := func(recs []probe.Record, src, dst topology.ServerID, n int, rtt time.Duration, fail string) []probe.Record {
		for i := 0; i < n; i++ {
			recs = append(recs, probe.Record{Start: t0.Add(time.Duration(len(recs)) * time.Second),
				Src: top.Server(src).Addr, Dst: top.Server(dst).Addr, Class: probe.IntraDC, Proto: probe.TCP,
				RTT: rtt, Err: fail})
		}
		return recs
	}
	ok := 500 * time.Microsecond

	// Healthy: 200 successes through one pod pair (a green cell), 50
	// through another (a cell below the floor), none through a third.
	var healthy []probe.Record
	healthy = probes(healthy, pod(0, 0), pod(1, 0), 200, ok, "")
	healthy = probes(healthy, pod(0, 0), pod(1, 1), 50, ok, "")
	// 150 probes, of which 90 failed and 2 of the 60 successes took 3s: a
	// drop rate of 3%, judged on fewer successes than the floor.
	var fewSuccesses []probe.Record
	fewSuccesses = probes(fewSuccesses, pod(0, 0), pod(1, 0), 58, ok, "")
	fewSuccesses = probes(fewSuccesses, pod(0, 0), pod(1, 0), 2, 3*time.Second, "")
	fewSuccesses = probes(fewSuccesses, pod(0, 0), pod(1, 0), 90, 0, "timeout")
	var belowFloor []probe.Record
	belowFloor = probes(belowFloor, pod(0, 0), pod(1, 0), 50, ok, "")

	for _, c := range []struct {
		name   string
		recs   []probe.Record
		hourly bool
		dst    topology.ServerID
		cell   uint64 // the pair's cell probes, 0 for no cell
		want   string
	}{
		{"green cell", healthy, true, pod(1, 0), 200, analysis.VerdictNotNetwork},
		{"cell below the floor", healthy, true, pod(1, 1), 50, analysis.VerdictNotNetwork},
		{"no cell", healthy, true, pod(1, 2), 0, analysis.VerdictNotNetwork},
		{"no heatmap", healthy, false, pod(1, 0), 0, analysis.VerdictNotNetwork},
		{"drops over too few successes", fewSuccesses, false, pod(1, 0), 0, analysis.VerdictInconclusive},
		{"SLA row below the floor", belowFloor, false, pod(1, 0), 0, analysis.VerdictInconclusive},
	} {
		p := craftedRig(t, top, c.hourly, c.recs)
		if alerts := p.Snapshot().Alerts; len(alerts) != 0 {
			t.Errorf("%s: alerts %+v", c.name, alerts)
		}
		q := "?src=" + top.Server(pod(0, 0)).Name + "&dst=" + top.Server(c.dst).Name
		var tri TriageResult
		var ch diagnosis.Chain
		for path, v := range map[string]any{"/triage" + q: &tri, "/diagnose" + q: &ch} {
			w := get(t, p.Handler(), path, nil)
			if err := json.Unmarshal(w.Body.Bytes(), v); err != nil || w.Code != http.StatusOK {
				t.Fatalf("%s: %s: %d %v", c.name, path, w.Code, err)
			}
		}
		if tri.Verdict != c.want || ch.Verdict != c.want || tri.PairProbes != c.cell {
			t.Errorf("%s: /triage %q (%s) on a %d-probe cell, /diagnose %q; want %q on %d",
				c.name, tri.Verdict, tri.Reason, tri.PairProbes, ch.Verdict, c.want, c.cell)
		}
		if tri.DCSLA == nil || tri.DCSLA.Verdict == "" || tri.DCSLA.Reason == "" {
			t.Errorf("%s: /triage carries no judged SLA row: %+v", c.name, tri.DCSLA)
		}
	}

	// The same holds over simulated traffic with votes and the TTL sweep
	// wired, on a clean fabric.
	r, _ := buildDiagRig(t, nil)
	names, _, _ := crossPodsetPair(r.top)
	var tri TriageResult
	var ch diagnosis.Chain
	json.Unmarshal(get(t, r.portal.Handler(), "/triage"+pairQuery(names), nil).Body.Bytes(), &tri)
	json.Unmarshal(get(t, r.portal.Handler(), "/diagnose"+pairQuery(names), nil).Body.Bytes(), &ch)
	if tri.Verdict != analysis.VerdictNotNetwork || ch.Verdict != tri.Verdict {
		t.Fatalf("clean fabric: /triage %q (%s), /diagnose %q", tri.Verdict, tri.Reason, ch.Verdict)
	}
}

// crossPodsetPair names one cross-podset pair three ways: server names,
// addresses and pod refs all resolve to the pods' first servers.
func crossPodsetPair(top *topology.Topology) (names, addrs, refs [2]string) {
	a := top.Server(top.DCs[0].Podsets[0].Pods[0].Servers[0])
	b := top.Server(top.DCs[0].Podsets[1].Pods[0].Servers[0])
	return [2]string{a.Name, b.Name}, [2]string{a.Addr.String(), b.Addr.String()}, [2]string{"d0.s0.p0", "d0.s1.p0"}
}

func pairQuery(p [2]string) string { return "?src=" + p[0] + "&dst=" + p[1] }

// TestDiagnosisReadsTheEpoch: /triage and /diagnose?src=&dst= answer from
// the published epoch, as their X-Pingmesh-Epoch header says. Votes cast
// after the publish — enough to convict a spine — change neither body until
// the next Refresh, and change both after it.
func TestDiagnosisReadsTheEpoch(t *testing.T) {
	r, engine := buildDiagRig(t, nil)
	h := r.portal.Handler()
	names, _, _ := crossPodsetPair(r.top)
	triageURL, chainURL := "/triage"+pairQuery(names), "/diagnose"+pairQuery(names)

	triage1, chain1 := get(t, h, triageURL, nil), get(t, h, chainURL, nil)
	if triage1.Code != http.StatusOK || chain1.Code != http.StatusOK {
		t.Fatalf("status triage/diagnose = %d/%d", triage1.Code, chain1.Code)
	}
	etag1 := chain1.Header().Get("ETag")
	if etag1 == "" {
		t.Fatal("chain response has no ETag")
	}

	spine := r.top.DCs[0].Spines[1]
	for i := 0; i < 200; i++ {
		engine.Votes.ObservePath([]topology.SwitchID{spine}, i%2 == 0)
	}

	for i := 0; i < 2; i++ {
		if w := get(t, h, triageURL, nil); w.Body.String() != triage1.Body.String() || w.Header().Get(epochHeaderKey) != "1" {
			t.Fatalf("/triage moved inside epoch 1:\n%s\nwas\n%s", w.Body, triage1.Body)
		}
		if w := get(t, h, chainURL, nil); w.Body.String() != chain1.Body.String() || w.Header().Get(epochHeaderKey) != "1" {
			t.Fatalf("/diagnose moved inside epoch 1:\n%s\nwas\n%s", w.Body, chain1.Body)
		}
	}
	w := get(t, h, chainURL, map[string]string{"If-None-Match": etag1})
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 || w.Header().Get(epochHeaderKey) != "1" {
		t.Fatalf("revalidation inside the epoch: status %d, %d bytes, epoch %q", w.Code, w.Body.Len(), w.Header().Get(epochHeaderKey))
	}

	if err := r.portal.Refresh(); err != nil {
		t.Fatal(err)
	}
	spineName := r.top.Switch(spine).Name
	var tri TriageResult
	w = get(t, h, triageURL, nil)
	if err := json.Unmarshal(w.Body.Bytes(), &tri); err != nil {
		t.Fatal(err)
	}
	if tri.PinnedHop != spineName || w.Header().Get(epochHeaderKey) != "2" {
		t.Fatalf("epoch 2 /triage pinned %q (epoch %q), want %q", tri.PinnedHop, w.Header().Get(epochHeaderKey), spineName)
	}
	var ch diagnosis.Chain
	w = get(t, h, chainURL, map[string]string{"If-None-Match": etag1})
	if w.Code != http.StatusOK || w.Header().Get(epochHeaderKey) != "2" || w.Header().Get("ETag") == etag1 {
		t.Fatalf("epoch 2 /diagnose: status %d epoch %q etag %q", w.Code, w.Header().Get(epochHeaderKey), w.Header().Get("ETag"))
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	voted := false
	for _, st := range ch.Steps {
		voted = voted || (st.Assertion == diagnosis.AssertHopVotes && st.Verdict == diagnosis.StepFail && st.Hop == spineName)
	}
	if !voted {
		t.Fatalf("epoch 2 chain does not hold the spine's votes against it: %+v", ch.Steps)
	}
}

// TestChainMemo: a chain is computed once per (epoch, resolved pair) —
// whichever spelling asks, however many ask at once — the memo never holds
// more than maxChains pairs, and a new epoch starts empty.
func TestChainMemo(t *testing.T) {
	r, engine := buildDiagRig(t, nil)
	engine.ProbesPerHop = 4 // the sweep's accuracy is not under test
	p, h := r.portal, r.portal.Handler()
	count := func(name string) int64 { return p.Metrics().Snapshot().Counters[name] }
	chains := func() int64 { return engine.Metrics().Snapshot().Counters["diagnosis.chains"] }

	names, addrs, refs := crossPodsetPair(r.top)
	var etag string
	for i, spelling := range [][2]string{names, addrs, refs} {
		w := get(t, h, "/diagnose"+pairQuery(spelling), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%v: status %d", spelling, w.Code)
		}
		if i == 0 {
			etag = w.Header().Get("ETag")
		} else if w.Header().Get("ETag") != etag {
			t.Fatalf("%v: a different body than %v", spelling, names)
		}
	}
	st := p.state.Load()
	if len(st.chains) != 1 || len(st.chainsBy) != 3 || chains() != 1 ||
		count("portal.chain_cache_misses") != 1 || count("portal.chain_cache_hits") != 2 {
		t.Fatalf("three spellings: %d entries, %d aliases, %d chains run, %d misses, %d hits",
			len(st.chains), len(st.chainsBy), chains(), count("portal.chain_cache_misses"), count("portal.chain_cache_hits"))
	}

	// Eight first requests for a new pair at once: one computes, seven wait.
	servers := r.top.Servers()
	url := "/diagnose?src=" + servers[1].Name + "&dst=" + servers[len(servers)-1].Name
	var wg sync.WaitGroup
	etags := make([]string, 8)
	for i := range etags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etags[i] = get(t, h, url, nil).Header().Get("ETag")
		}()
	}
	wg.Wait()
	for _, e := range etags {
		if e == "" || e != etags[0] {
			t.Fatalf("concurrent first requests saw different bodies: %q", etags)
		}
	}
	if chains() != 2 || count("portal.chain_cache_misses") != 2 || count("portal.chain_cache_hits") != 9 {
		t.Fatalf("concurrent first requests: %d chains run, %d misses, %d hits", chains(), count("portal.chain_cache_misses"), count("portal.chain_cache_hits"))
	}

	// Every pair of the fleet: more than the memo holds.
	for _, a := range servers {
		for _, b := range servers {
			var ch diagnosis.Chain
			w := get(t, h, "/diagnose?src="+a.Name+"&dst="+b.Name, nil)
			if err := json.Unmarshal(w.Body.Bytes(), &ch); err != nil || w.Code != http.StatusOK || ch.Src != a.Name || ch.Dst != b.Name {
				t.Fatalf("%s->%s: status %d, chain %s->%s, err %v", a.Name, b.Name, w.Code, ch.Src, ch.Dst, err)
			}
		}
	}
	pairs := int64(len(servers) * len(servers))
	if pairs <= maxChains {
		t.Fatalf("rig has %d pairs, not enough to pass the cap of %d", pairs, maxChains)
	}
	if len(st.chains) != maxChains || count("portal.chain_cache_misses") != maxChains ||
		count("portal.chain_cache_uncached") != pairs-maxChains {
		t.Fatalf("past the cap: %d entries, %d misses, %d uncached; want %d, %d, %d", len(st.chains),
			count("portal.chain_cache_misses"), count("portal.chain_cache_uncached"), maxChains, maxChains, pairs-maxChains)
	}

	if err := p.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st = p.state.Load(); len(st.chains) != 0 || len(st.chainsBy) != 0 {
		t.Fatalf("new epoch starts with %d entries, %d aliases", len(st.chains), len(st.chainsBy))
	}
	misses := count("portal.chain_cache_misses")
	get(t, h, "/diagnose"+pairQuery(names), nil)
	if count("portal.chain_cache_misses") != misses+1 {
		t.Fatal("first request of the new epoch was not computed afresh")
	}
}

// TestDiagnoseHitZeroAlloc: a memoised chain and its 304 cost what any
// other cached read costs — no allocation.
func TestDiagnoseHitZeroAlloc(t *testing.T) {
	r, _ := buildDiagRig(t, nil)
	names, _, _ := crossPodsetPair(r.top)
	url := "/diagnose" + pairQuery(names)
	etag := get(t, r.portal.Handler(), url, nil).Header().Get("ETag")
	w := &nopResponseWriter{}
	for _, revalidate := range []bool{false, true} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		if revalidate {
			req.Header.Set("If-None-Match", etag)
		}
		r.portal.serveDiagnose(w, req) // warm the header map
		if allocs := testing.AllocsPerRun(200, func() {
			r.portal.serveDiagnose(w, req)
		}); allocs != 0 {
			t.Errorf("memoised chain (revalidate %v): %v allocs/op, want 0", revalidate, allocs)
		}
	}
}

// BenchmarkPortalDiagnoseHit is a /diagnose?src=&dst= read once its chain
// is in the epoch's memo: a cached read like any other.
func BenchmarkPortalDiagnoseHit(b *testing.B) {
	r, _ := buildDiagRig(b, nil)
	names, _, _ := crossPodsetPair(r.top)
	req := httptest.NewRequest(http.MethodGet, "/diagnose"+pairQuery(names), nil)
	w := &nopResponseWriter{}
	r.portal.serveDiagnose(w, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.portal.serveDiagnose(w, req)
	}
}

// BenchmarkPortalDiagnoseMiss is the first read of a pair in an epoch: the
// chain with its TTL sweep, rendered and compressed — what every read cost
// before the memo.
func BenchmarkPortalDiagnoseMiss(b *testing.B) {
	r, _ := buildDiagRig(b, nil)
	names, _, _ := crossPodsetPair(r.top)
	req := httptest.NewRequest(http.MethodGet, "/diagnose"+pairQuery(names), nil)
	w := &nopResponseWriter{}
	st := r.portal.state.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(st.chains)
		clear(st.chainsBy)
		r.portal.serveDiagnose(w, req)
	}
}
