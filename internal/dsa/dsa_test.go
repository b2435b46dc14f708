package dsa

import (
	"strings"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/core"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/fleet"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// rig builds a simulated deployment and pushes one hour of probes through
// Cosmos, returning the loaded pipeline pieces.
type rig struct {
	top   *topology.Topology
	net   *netsim.Network
	store *cosmos.Store
	pipe  *Pipeline
}

func buildRig(t *testing.T, mutate func(*netsim.Network), cfgMutate func(*Config)) *rig {
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
	runner := &fleet.Runner{Net: n, Lists: lists, Seed: 9}
	err = runner.Run(t0, t0.Add(time.Hour), func(src topology.ServerID, recs []probe.Record) {
		if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, Top: top, Clock: simclock.NewSim(t0)}
	if cfgMutate != nil {
		cfgMutate(&cfg)
	}
	pipe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{top: top, net: n, store: store, pipe: pipe}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted empty config")
	}
}

func TestTenMinuteJobWritesSLA(t *testing.T) {
	r := buildRig(t, nil, nil)
	if err := r.pipe.RunTenMinute(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	rows, err := r.pipe.DB().Query(TableSLA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("sla rows = %d, want 1 (one DC)", len(rows))
	}
	row := rows[0]
	if row["scope"] != "dc/DC1" {
		t.Fatalf("scope = %v", row["scope"])
	}
	p50 := row["p50"].(time.Duration)
	if p50 < 100*time.Microsecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, implausible", p50)
	}
	if row["probes"].(int64) == 0 {
		t.Fatal("no probes counted")
	}
	// Healthy network: no alerts.
	if alerts := r.pipe.Alerts(); len(alerts) != 0 {
		t.Fatalf("alerts on healthy network: %v", alerts)
	}
}

func TestServiceSLAAndAlerting(t *testing.T) {
	var svc *analysis.Service
	r := buildRig(t, func(n *netsim.Network) {
		// Degrade podset 1 so the service using it breaks SLA.
		n.SetPodsetDegraded(0, 1, netsim.Degradation{ExtraLatencyMean: 10 * time.Millisecond})
	}, nil)
	_ = svc
	// Rebuild the pipeline with a service over podset 1's servers.
	ids := r.top.DCs[0].Podsets[1].Servers()
	service := analysis.ServiceFromServers("search", r.top, ids)
	pipe, err := New(Config{Store: r.store, Top: r.top, Clock: simclock.NewSim(t0), Services: []*analysis.Service{service}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	rows, _ := pipe.DB().Query(TableSLA, reportdb.Where(func(row reportdb.Row) bool {
		return row["scope"] == "service/search"
	}))
	if len(rows) != 1 {
		t.Fatalf("service sla rows = %d", len(rows))
	}
	// The degraded podset pushes the service P99 over 5ms: an alert fires.
	found := false
	for _, a := range pipe.Alerts() {
		if a.Scope == "service/search" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no alert for degraded service; alerts=%v", pipe.Alerts())
	}
}

// TestAlertsFollowRowVerdicts: the SLA rule runs once per row, and an
// alerting publisher fires exactly the rows it judged network — same
// reason, same numbers, in scope order. A row judged on fewer successful
// probes than the floor is inconclusive and fires nothing, however many
// probes failed around them; an inter-DC row is judged but never alerts.
func TestAlertsFollowRowVerdicts(t *testing.T) {
	spec := topology.DCSpec{Podsets: 1, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 2, Spines: 2}
	var dcs []topology.DCSpec
	for _, name := range []string{"DC1", "DC2", "DC3", "DC4", "DC5"} {
		spec.Name = name
		dcs = append(dcs, spec)
	}
	top, err := topology.Build(topology.Spec{DCs: dcs})
	if err != nil {
		t.Fatal(err)
	}
	srv := func(dc, i int) topology.ServerID { return top.DCs[dc].Podsets[0].Servers()[i] }
	var recs []probe.Record
	probes := func(src, dst topology.ServerID, n int, rtt time.Duration, fail string) {
		class := probe.IntraDC
		if top.Server(src).DC != top.Server(dst).DC {
			class = probe.InterDC
		}
		for i := 0; i < n; i++ {
			recs = append(recs, probe.Record{Start: t0.Add(time.Duration(len(recs)%600) * time.Second),
				Src: top.Server(src).Addr, Dst: top.Server(dst).Addr, Class: class, Proto: probe.TCP,
				RTT: rtt, Err: fail})
		}
	}
	ok := 500 * time.Microsecond
	probes(srv(0, 0), srv(0, 1), 200, ok, "") // DC1: 1% drops
	probes(srv(0, 0), srv(0, 1), 2, 3*time.Second, "")
	probes(srv(1, 0), srv(1, 1), 58, ok, "") // DC2: 3% drops over 60 successes
	probes(srv(1, 0), srv(1, 1), 2, 3*time.Second, "")
	probes(srv(1, 0), srv(1, 1), 90, 0, "timeout")
	probes(srv(2, 0), srv(2, 1), 200, 8*time.Millisecond, "") // DC3: slow
	probes(srv(3, 0), srv(3, 1), 300, ok, "")                 // DC4: healthy
	probes(srv(4, 0), srv(4, 1), 300, ok, "")                 // DC5: one 9s connect in 301
	probes(srv(4, 0), srv(4, 1), 1, 9*time.Second, "")
	probes(srv(3, 0), srv(0, 0), 200, 30*time.Millisecond, "") // WAN: slow, not alerted

	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
		t.Fatal(err)
	}
	svc := func(name string, dc int) *analysis.Service {
		return analysis.ServiceFromServers(name, top, []topology.ServerID{srv(dc, 0)})
	}
	pipe, err := New(Config{Store: store, Top: top, Clock: simclock.NewSim(t0),
		Services: []*analysis.Service{svc("few", 1), svc("slow", 2), svc("fine", 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(t0, t0.Add(10*time.Minute)); err != nil {
		t.Fatal(err)
	}

	N, P, I := analysis.VerdictNetwork, analysis.VerdictNotNetwork, analysis.VerdictInconclusive
	want := map[string]string{
		"dc/DC1": N, "dc/DC2": I, "dc/DC3": N, "dc/DC4": P, "dc/DC5": N,
		"service/few": I, "service/slow": N, "service/fine": P,
		"interdc/DC4->DC1": N,
	}
	rows, err := pipe.DB().Query(TableSLA)
	if err != nil {
		t.Fatal(err)
	}
	alerts := map[string]analysis.Alert{}
	for _, a := range pipe.Alerts() {
		alerts[a.Scope] = a
	}
	for _, r := range rows {
		scope, verdict, reason := r["scope"].(string), r["verdict"].(string), r["reason"].(string)
		if verdict != want[scope] || reason == "" {
			t.Errorf("%s: row verdict %q (%s), want %q", scope, verdict, reason, want[scope])
		}
		delete(want, scope)
		a, fired := alerts[scope]
		if alerting := !strings.HasPrefix(scope, "interdc/"); fired != (alerting && verdict == N) {
			t.Errorf("%s: verdict %q, alert fired %v", scope, verdict, fired)
		}
		if fired && (a.Reason != reason || a.DropRate != r["drop_rate"] || a.P99 != r["p99"] || !a.At.Equal(t0.Add(10*time.Minute))) {
			t.Errorf("%s: alert %+v, row %v", scope, a, r)
		}
	}
	if len(want) != 0 {
		t.Errorf("no rows for %v", want)
	}
	var order []string
	for _, a := range pipe.Alerts() {
		order = append(order, a.Scope)
	}
	if got := strings.Join(order, " "); got != "dc/DC1 dc/DC3 dc/DC5 service/slow" {
		t.Errorf("alerts fired in order %s", got)
	}
	if n, _ := pipe.DB().Query(TableAlerts); len(n) != len(order) {
		t.Errorf("%d alert rows for %d alerts", len(n), len(order))
	}
}

func TestHourlyJobClassifiesPatterns(t *testing.T) {
	r := buildRig(t, func(n *netsim.Network) {
		n.SetTierDegraded(0, topology.TierSpine, netsim.Degradation{ExtraLatencyMean: 10 * time.Millisecond})
	}, nil)
	if err := r.pipe.RunHourly(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	rows, err := r.pipe.DB().Query(TablePatterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("pattern rows = %d", len(rows))
	}
	if rows[0]["pattern"] != "spine-failure" {
		t.Fatalf("pattern = %v, want spine-failure", rows[0]["pattern"])
	}
	// Pod SLA rows exist for all 4 pods.
	slaRows, _ := r.pipe.DB().Query(TableSLA)
	if len(slaRows) != 6 {
		t.Fatalf("pod sla rows = %d, want 6", len(slaRows))
	}
}

func TestDailyJobDropRatesAndBlackholes(t *testing.T) {
	var detected []diagnosis.BlackholeDetection
	r := buildRig(t, func(n *netsim.Network) {
		n.AddBlackhole(n.Topology().ToRs(0)[1], netsim.Blackhole{MatchFraction: 0.4})
	}, func(cfg *Config) {
		cfg.OnDetection = func(d diagnosis.BlackholeDetection) { detected = append(detected, d) }
	})
	if err := r.pipe.RunDaily(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	drops, _ := r.pipe.DB().Query(TableDropRates)
	if len(drops) < 2 {
		t.Fatalf("drop rate rows = %d, want intra-pod and intra-dc", len(drops))
	}
	bh, _ := r.pipe.DB().Query(TableBlackholes)
	if len(bh) == 0 {
		t.Fatal("black-hole candidate not recorded")
	}
	if len(detected) != 1 || len(detected[0].Candidates) == 0 {
		t.Fatalf("detection callback = %v", detected)
	}
	wantToR := r.top.Switch(r.top.ToRs(0)[1]).Name
	if bh[0]["tor"] != wantToR {
		t.Fatalf("candidate = %v, want %v", bh[0]["tor"], wantToR)
	}
}

// TestScheduledPipelineRunsOnSimClock advances the sim clock through a full
// hour: six scheduled 10-minute cycles and the hourly one, all served from
// folded partials.
func TestScheduledPipelineRunsOnSimClock(t *testing.T) {
	clock := simclock.NewSim(t0)
	r := buildRig(t, nil, func(cfg *Config) { cfg.Clock = clock })
	published := driveScheduled(t, r.pipe, clock, 6)
	if published[Cycle10Min] != 6 || published[Cycle1Hour] != 1 || published[Cycle1Day] != 0 {
		t.Fatalf("cycles published over an hour: %v", published)
	}
	m := r.pipe.JobRegistry().Snapshot().Counters
	if r.pipe.MaxFoldBacklog() != 0 || m["dsa.fold.extents_folded"] == 0 {
		t.Fatalf("scheduled cycles not served from folds: backlog %d, %v", r.pipe.MaxFoldBacklog(), m)
	}
	// SLA rows accumulated across windows: one dc/ row per 10-minute window
	// and one pod/ row per pod for the hour.
	if got, want := r.pipe.DB().Count(TableSLA), 6+6; got != want {
		t.Fatalf("%d SLA rows from scheduled runs, want %d", got, want)
	}
	if len(r.pipe.Heatmaps()) != 1 {
		t.Fatalf("scheduled hourly cycle left %d heatmaps", len(r.pipe.Heatmaps()))
	}
}

func TestInterDCPipeline(t *testing.T) {
	// A two-DC fleet: the 10-minute job also feeds the separate inter-DC
	// pipeline (§6.2), producing per-DC-pair SLA rows with WAN-scale
	// latency.
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 2, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile(), netsim.DC2Profile()}})
	if err != nil {
		t.Fatal(err)
	}
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := core.Generate(top, core.DefaultGeneratorConfig(), "v1", t0)
	if err != nil {
		t.Fatal(err)
	}
	runner := &fleet.Runner{Net: n, Lists: lists, Seed: 10}
	err = runner.Run(t0, t0.Add(time.Hour), func(src topology.ServerID, recs []probe.Record) {
		if err := store.Append("pingmesh/2026-07-01", probe.EncodeBatch(recs)); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := New(Config{Store: store, Top: top, Clock: simclock.NewSim(t0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunTenMinute(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	rows, err := pipe.DB().Query(TableSLA, reportdb.Where(func(r reportdb.Row) bool {
		s, _ := r["scope"].(string)
		return len(s) > 8 && s[:8] == "interdc/"
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Both directions of the DC pair.
	if len(rows) != 2 {
		t.Fatalf("inter-DC rows = %d, want 2 (both directions)", len(rows))
	}
	for _, r := range rows {
		p50 := r["p50"].(time.Duration)
		if p50 < 20*time.Millisecond || p50 > 40*time.Millisecond {
			t.Fatalf("inter-DC p50 = %v for %v, want WAN-scale ~24ms", p50, r["scope"])
		}
	}
}

func TestRetentionAgesOutOldStreams(t *testing.T) {
	r := buildRig(t, nil, nil)
	// Plant a stream past the two-month retention, one inside it and an
	// undated one next to the fresh data.
	if err := r.store.Append("pingmesh/2026-04-01", []byte("old data")); err != nil {
		t.Fatal(err)
	}
	if err := r.store.Append("pingmesh/2026-06-01", []byte("month-old data")); err != nil {
		t.Fatal(err)
	}
	if err := r.store.Append("pingmesh/manual-notes", []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	if err := r.pipe.RunDaily(t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := r.store.Streams("pingmesh/2026-04-01"); len(got) != 0 {
		t.Fatalf("expired stream survived: %v", got)
	}
	if got := r.store.Streams("pingmesh/2026-06-01"); len(got) != 1 {
		t.Fatalf("stream inside the retention deleted: %v", got)
	}
	if got := r.store.Streams("pingmesh/2026-07-01"); len(got) != 1 {
		t.Fatalf("in-retention stream deleted: %v", got)
	}
	if got := r.store.Streams("pingmesh/manual-notes"); len(got) != 1 {
		t.Fatalf("undated stream deleted: %v", got)
	}
}
