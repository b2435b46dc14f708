package portal

import (
	"fmt"
	"sort"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/dsa"
	"pingmesh/internal/reportdb"
	"pingmesh/internal/topology"
	"pingmesh/internal/viz"
)

// DefaultRankLimit caps the published root-cause candidate ranking.
const DefaultRankLimit = 64

// SLAEntry is one scope's latest network SLA: the row the §4.3 "is it a
// network issue?" conversation starts from, with the verdict and reason the
// SLA rule gave it at publish. Durations marshal as nanoseconds.
type SLAEntry struct {
	Scope       string        `json:"scope"`
	WindowStart time.Time     `json:"window_start"`
	WindowEnd   time.Time     `json:"window_end"`
	Probes      int64         `json:"probes"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	DropRate    float64       `json:"drop_rate"`
	FailureRate float64       `json:"failure_rate"`
	Verdict     string        `json:"verdict"`
	Reason      string        `json:"reason"`
}

// AlertEntry is one fired SLA violation in the feed.
type AlertEntry struct {
	Scope    string        `json:"scope"`
	At       time.Time     `json:"at"`
	Reason   string        `json:"reason"`
	DropRate float64       `json:"drop_rate"`
	P99      time.Duration `json:"p99_ns"`
}

// HeatmapView is one DC's latest hourly heatmap with its Figure 8
// classification.
type HeatmapView struct {
	DC             string
	Heatmap        *viz.Heatmap
	Classification viz.Classification
	From, To       time.Time
}

// Snapshot is one immutable epoch of DSA outputs: everything the portal
// serves, assembled once per analysis cycle and swapped in atomically.
// Snapshots are never mutated after publication — readers on any number
// of goroutines share them freely.
type Snapshot struct {
	Epoch       uint64
	PublishedAt time.Time
	// SLA holds the latest entry per scope (server/pod/podset/dc/service,
	// plus interdc pairs).
	SLA map[string]SLAEntry
	// Alerts is the recent alert feed, newest first.
	Alerts []AlertEntry
	// Heatmaps holds the latest hourly heatmap per DC name.
	Heatmaps map[string]HeatmapView
	// Thresholds are the SLA limits the rows were judged against.
	Thresholds analysis.Thresholds
	// Diagnosis is the epoch's root-cause vote ranking (nil when the
	// deployment runs without a diagnosis collector).
	Diagnosis *diagnosis.Ranking
}

// BuildSnapshot assembles a snapshot from the pipeline's report database
// and retained heatmaps. now anchors the alert-feed recency cutoff.
func BuildSnapshot(p *dsa.Pipeline, now time.Time) (*Snapshot, error) {
	s := &Snapshot{
		PublishedAt: now,
		SLA:         make(map[string]SLAEntry),
		Heatmaps:    make(map[string]HeatmapView),
		Thresholds:  p.Thresholds(),
	}

	rows, err := p.DB().Query(dsa.TableSLA)
	if err != nil {
		return nil, fmt.Errorf("portal: %w", err)
	}
	for _, r := range rows {
		e, err := slaEntryFromRow(r)
		if err != nil {
			return nil, err
		}
		if prev, ok := s.SLA[e.Scope]; !ok || e.WindowEnd.After(prev.WindowEnd) {
			s.SLA[e.Scope] = e
		}
	}

	// The alert feed: the portal's canonical reportdb read
	// (Where + OrderByDesc + Limit — benchmarked in internal/reportdb).
	cutoff := now.Add(-alertWindow)
	alerts, err := p.DB().Query(dsa.TableAlerts,
		reportdb.Where(func(r reportdb.Row) bool {
			at, ok := r["at"].(time.Time)
			return ok && !at.Before(cutoff)
		}),
		reportdb.OrderByDesc("at"),
		reportdb.Limit(alertLimit))
	if err != nil {
		return nil, fmt.Errorf("portal: %w", err)
	}
	for _, r := range alerts {
		s.Alerts = append(s.Alerts, AlertEntry{
			Scope:    str(r["scope"]),
			At:       tim(r["at"]),
			Reason:   str(r["reason"]),
			DropRate: f64(r["drop_rate"]),
			P99:      dur(r["p99"]),
		})
	}

	for dc, hr := range p.Heatmaps() {
		s.Heatmaps[dc] = HeatmapView{
			DC: dc, Heatmap: hr.Heatmap, Classification: hr.Classification,
			From: hr.From, To: hr.To,
		}
	}
	if col := p.Diagnosis(); col != nil {
		s.Diagnosis = col.Snapshot(DefaultRankLimit)
	}
	return s, nil
}

func slaEntryFromRow(r reportdb.Row) (SLAEntry, error) {
	scope, ok := r["scope"].(string)
	if !ok {
		return SLAEntry{}, fmt.Errorf("portal: SLA row without scope: %v", r)
	}
	return SLAEntry{
		Scope:       scope,
		WindowStart: tim(r["window_start"]),
		WindowEnd:   tim(r["window_end"]),
		Probes:      i64(r["probes"]),
		P50:         dur(r["p50"]),
		P99:         dur(r["p99"]),
		DropRate:    f64(r["drop_rate"]),
		FailureRate: f64(r["failure_rate"]),
		Verdict:     str(r["verdict"]),
		Reason:      str(r["reason"]),
	}, nil
}

// Loose row-value accessors: reportdb rows are typed maps and absent
// columns are NULL-ish, so zero values are the right degradation.
func str(v any) string {
	s, _ := v.(string)
	return s
}
func tim(v any) time.Time {
	t, _ := v.(time.Time)
	return t
}
func i64(v any) int64 {
	n, _ := v.(int64)
	return n
}
func f64(v any) float64 {
	f, _ := v.(float64)
	return f
}
func dur(v any) time.Duration {
	d, _ := v.(time.Duration)
	return d
}

// sortedScopes returns the snapshot's SLA scopes in name order.
func (s *Snapshot) sortedScopes() []string {
	scopes := make([]string, 0, len(s.SLA))
	for k := range s.SLA {
		scopes = append(scopes, k)
	}
	sort.Strings(scopes)
	return scopes
}

// Two of /triage's verdicts, for callers that compare its answers: aliases
// of analysis's words, the only ones there are.
const (
	VerdictNetwork    = analysis.VerdictNetwork
	VerdictNotNetwork = analysis.VerdictNotNetwork
)

// TriageResult is the §4.3 decision as data: the verdict of the diagnosis
// chain's first two steps plus every number they judged, so the caller can
// disagree.
type TriageResult struct {
	Verdict string `json:"verdict"`
	Reason  string `json:"reason"`
	Src     string `json:"src"` // resolved source pod ref
	Dst     string `json:"dst"` // resolved destination pod ref
	DCScope string `json:"dc_scope,omitempty"`

	// DC-level evidence (the scope's SLA entry, if known).
	DCSLA *SLAEntry `json:"dc_sla,omitempty"`
	// Pair-level evidence from the heatmap cell, if it has data.
	PairP99    time.Duration `json:"pair_p99_ns,omitempty"`
	PairProbes uint64        `json:"pair_probes,omitempty"`
	PairColor  string        `json:"pair_color,omitempty"`

	// Thresholds the evidence was judged against.
	MaxDropRate float64       `json:"max_drop_rate"`
	MaxP99      time.Duration `json:"max_p99_ns"`

	// PinnedHop names the root-cause engine's current top vote suspect on
	// the pair's candidate path, when diagnosis is wired and a suspect
	// clears its threshold; Diagnose links the full evidence chain, whose
	// later steps may pin a hop the first two could not see.
	PinnedHop string `json:"pinned_hop,omitempty"`
	Diagnose  string `json:"diagnose,omitempty"`
}

// triage answers /triage for a resolved server pair: the diagnosis chain's
// first two steps (diagnosis.Decide) over this epoch's evidence, with the
// evidence itself attached.
func (s *Snapshot) triage(top *topology.Topology, srcID, dstID topology.ServerID) TriageResult {
	src, dst := podRefOf(top, srcID), podRefOf(top, dstID)
	scope := pairScope(top, src, dst)
	cell := s.cellFacts(top, src, dst)
	d := diagnosis.Decide(s.slaFacts(scope), cell, src.DC != dst.DC)
	res := TriageResult{
		Verdict: d.Verdict, Reason: d.Reason,
		Src: src.String(), Dst: dst.String(), DCScope: scope,
		MaxDropRate: s.Thresholds.MaxDropRate, MaxP99: s.Thresholds.MaxP99,
	}
	if e, ok := s.SLA[scope]; ok {
		res.DCSLA = &e
	}
	if cell != nil {
		res.PairP99, res.PairProbes, res.PairColor = cell.P99, cell.Probes, cell.Color
	}
	return res
}

// pairScope names the SLA scope judging a pod pair: "dc/<name>" inside one
// DC, "interdc/<a>-><b>" across DCs.
func pairScope(top *topology.Topology, src, dst analysis.PodRef) string {
	if src.DC != dst.DC {
		return "interdc/" + top.DCs[src.DC].Name + "->" + top.DCs[dst.DC].Name
	}
	return "dc/" + top.DCs[src.DC].Name
}

// slaFacts returns a scope's SLA entry as diagnosis evidence (nil when the
// scope has none).
func (s *Snapshot) slaFacts(scope string) *diagnosis.SLAFacts {
	e, ok := s.SLA[scope]
	if !ok {
		return nil
	}
	return &diagnosis.SLAFacts{Scope: scope, Probes: e.Probes, P99: e.P99, DropRate: e.DropRate,
		Verdict: e.Verdict, Reason: e.Reason}
}

// cellFacts returns a pod pair's heatmap cell as diagnosis evidence (nil
// when the pair has no cell with data, as across DCs).
func (s *Snapshot) cellFacts(top *topology.Topology, src, dst analysis.PodRef) *diagnosis.CellFacts {
	if src.DC != dst.DC {
		return nil
	}
	hv, ok := s.Heatmaps[top.DCs[src.DC].Name]
	if !ok {
		return nil
	}
	cell, ok := lookupCell(hv.Heatmap, src, dst)
	if !ok || !cell.HasData {
		return nil
	}
	return &diagnosis.CellFacts{Probes: cell.Probes, P99: cell.P99, Color: cell.Color().String(),
		Floor: analysis.MinProbes}
}

// Evidence adapts the snapshot into the diagnosis engine's evidence
// source: the chain's first three assertions (pair SLA, heatmap cell, hop
// votes) read the same immutable epoch every other portal endpoint serves.
func (s *Snapshot) Evidence(top *topology.Topology) diagnosis.EvidenceSource {
	return &snapshotEvidence{snap: s, top: top}
}

type snapshotEvidence struct {
	snap *Snapshot
	top  *topology.Topology
}

func (se *snapshotEvidence) Ranking() *diagnosis.Ranking { return se.snap.Diagnosis }

func podRefOf(top *topology.Topology, id topology.ServerID) analysis.PodRef {
	sv := top.Server(id)
	return analysis.PodRef{DC: sv.DC, Podset: sv.Podset, Pod: sv.Pod}
}

func (se *snapshotEvidence) PairSLA(src, dst topology.ServerID) *diagnosis.SLAFacts {
	return se.snap.slaFacts(pairScope(se.top, podRefOf(se.top, src), podRefOf(se.top, dst)))
}

func (se *snapshotEvidence) PairCell(src, dst topology.ServerID) *diagnosis.CellFacts {
	return se.snap.cellFacts(se.top, podRefOf(se.top, src), podRefOf(se.top, dst))
}

// lookupCell finds the heatmap cell for a pod pair.
func lookupCell(h *viz.Heatmap, src, dst analysis.PodRef) (viz.Cell, bool) {
	si, di := -1, -1
	for i, p := range h.Pods {
		if p == src {
			si = i
		}
		if p == dst {
			di = i
		}
	}
	if si < 0 || di < 0 {
		return viz.Cell{}, false
	}
	return h.Cells[si][di], true
}
