package pingmesh_test

// End-to-end root-cause diagnosis: two simultaneous faults — a silent
// random drop on a spine and a TCAM black-hole on a ToR — injected into a
// live simulated fleet. After one probing window the vote ranking must
// place both faulty switches in its top two, and the portal's /diagnose
// chains must pin each true hop over real HTTP, with /triage carrying the
// thin summary and /metrics the diagnosis counters.

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pingmesh"
	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

func TestDiagnosisEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated fleet run")
	}
	tb, err := pingmesh.NewSimTestbed(pingmesh.TopologySpec{DCs: []pingmesh.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 4, ServersPerPod: 4, LeavesPerPodset: 3, Spines: 6},
	}}, pingmesh.SimOptions{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}

	spine := tb.Top.DCs[0].Spines[0]
	tb.Net.SetRandomDrop(spine, 0.05, true)
	tor := tb.Top.ToRs(0)[2]
	tb.Net.AddBlackhole(tor, netsim.Blackhole{MatchFraction: 0.6})
	spineName := tb.Top.Switch(spine).Name
	torName := tb.Top.Switch(tor).Name

	from := tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}

	// Fleet-wide: both faults must top the explain-away ranking. The loud
	// black-hole must not bury the quiet spine drop.
	ranking := tb.Diag.Snapshot(8)
	if len(ranking.Candidates) < 2 {
		t.Fatalf("ranking has %d candidates, want >= 2", len(ranking.Candidates))
	}
	topTwo := map[string]bool{}
	for _, c := range ranking.Candidates[:2] {
		topTwo[tb.Top.Switch(c.Switch).Name] = true
	}
	if !topTwo[spineName] || !topTwo[torName] {
		t.Fatalf("top-2 = %v, want {%s, %s}", topTwo, spineName, torName)
	}

	// Publish a portal snapshot so the HTTP chain has SLA/heatmap evidence
	// (the analysis cycle republishes through the portal's OnCycle hook).
	p := tb.NewPortal()
	if err := tb.AnalyzeWindow(from, tb.Clock.Now()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	client := srv.Client()

	// Per-pair over HTTP: a cross-podset pair's chain must pin the spine.
	src := tb.Top.Server(tb.Top.DCs[0].Podsets[0].Pods[0].Servers[0]).Name
	dst := tb.Top.Server(tb.Top.DCs[0].Podsets[1].Pods[0].Servers[0]).Name
	var chain pingmesh.DiagnosisChain
	getJSON(t, client, srv.URL+"/diagnose?src="+src+"&dst="+dst, &chain)
	if chain.PinnedHop != spineName {
		t.Fatalf("cross-podset chain pinned %q, want %q\nsteps: %+v", chain.PinnedHop, spineName, chain.Steps)
	}
	if chain.Verdict != "network" {
		t.Fatalf("cross-podset chain verdict = %q, want network", chain.Verdict)
	}

	// A same-podset pair ending under the black-holed ToR must pin the ToR
	// (its path never crosses the also-faulty spine). The hole matches a
	// fraction of the address space, so scan victims until a chain pins.
	var victim, srcPod *topology.Pod
	for psi := range tb.Top.DCs[0].Podsets {
		for pi := range tb.Top.DCs[0].Podsets[psi].Pods {
			pod := &tb.Top.DCs[0].Podsets[psi].Pods[pi]
			if pod.ToR == tor {
				victim = pod
				srcPod = &tb.Top.DCs[0].Podsets[psi].Pods[0]
				if srcPod.ToR == tor {
					srcPod = &tb.Top.DCs[0].Podsets[psi].Pods[1]
				}
			}
		}
	}
	if victim == nil {
		t.Fatal("black-holed ToR has no pod")
	}
	pinned := false
scan:
	for _, s := range srcPod.Servers {
		for _, d := range victim.Servers {
			var ch pingmesh.DiagnosisChain
			getJSON(t, client, srv.URL+"/diagnose?src="+tb.Top.Server(s).Name+"&dst="+tb.Top.Server(d).Name, &ch)
			if ch.PinnedHop == torName {
				pinned = true
				// The thin summary for the same pair carries the verdict and
				// a pointer back to the full chain.
				var triage pingmesh.TriageResult
				getJSON(t, client, srv.URL+"/triage?src="+tb.Top.Server(s).Name+"&dst="+tb.Top.Server(d).Name, &triage)
				if triage.Diagnose == "" {
					t.Fatal("/triage has no diagnose pointer")
				}
				break scan
			}
		}
	}
	if !pinned {
		t.Fatalf("no same-podset chain pinned the black-holed ToR %s", torName)
	}

	// The diagnosis counters ride the portal scrape surface.
	resp, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pingmesh_diagnosis_probes_observed",
		"pingmesh_diagnosis_votes_cast",
		"pingmesh_diagnosis_chains",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
