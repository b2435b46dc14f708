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
// network issue?" conversation starts from. Durations marshal as
// nanoseconds.
type SLAEntry struct {
	Scope       string        `json:"scope"`
	WindowStart time.Time     `json:"window_start"`
	WindowEnd   time.Time     `json:"window_end"`
	Probes      int64         `json:"probes"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	DropRate    float64       `json:"drop_rate"`
	FailureRate float64       `json:"failure_rate"`
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
	// Thresholds are the SLA limits triage verdicts are judged against.
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

// Triage verdicts: the three possible answers of the §4.3 decision
// procedure.
const (
	VerdictNetwork      = "network"
	VerdictNotNetwork   = "not-network"
	VerdictInconclusive = "inconclusive"
)

// TriageResult is the §4.3 decision procedure as data: the verdict plus
// every number that supports it, so the caller can disagree.
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
	// clears its threshold; Diagnose links the full evidence chain. These
	// make /triage the thin summary of /diagnose.
	PinnedHop string `json:"pinned_hop,omitempty"`
	Diagnose  string `json:"diagnose,omitempty"`
}

// resolvePod resolves a src/dst parameter — a pod ref ("d0.s1.p2"), a
// server name, or a server address — to a pod reference.
func resolvePod(top *topology.Topology, s string) (analysis.PodRef, bool) {
	if ref, err := analysis.ParsePodRef(s); err == nil {
		return ref, true
	}
	if id, ok := resolveServer(top, s); ok {
		return podRefOf(top, id), true
	}
	return analysis.PodRef{}, false
}

// violated reports whether an SLA entry breaches the thresholds, with the
// paper's MinProbes suppression.
func violated(e SLAEntry, th analysis.Thresholds) bool {
	if uint64(e.Probes) < th.MinProbes {
		return false
	}
	return (th.MaxDropRate > 0 && e.DropRate > th.MaxDropRate) ||
		(th.MaxP99 > 0 && e.P99 > th.MaxP99)
}

// Triage answers "is it a network issue?" for a server pair (§4.3): it
// compares the pair's latency/drop evidence from the latest heatmap
// against the DC-level SLA and returns network / not-network /
// inconclusive with the supporting numbers.
func (s *Snapshot) Triage(top *topology.Topology, srcParam, dstParam string) TriageResult {
	th := s.Thresholds
	res := TriageResult{
		Verdict:     VerdictInconclusive,
		MaxDropRate: th.MaxDropRate,
		MaxP99:      th.MaxP99,
	}
	src, ok := resolvePod(top, srcParam)
	if !ok {
		res.Reason = fmt.Sprintf("source %q is not a known server, address, or pod ref", srcParam)
		return res
	}
	dst, ok := resolvePod(top, dstParam)
	if !ok {
		res.Reason = fmt.Sprintf("destination %q is not a known server, address, or pod ref", dstParam)
		return res
	}
	res.Src, res.Dst = src.String(), dst.String()

	if src.DC != dst.DC {
		return s.triageInterDC(top, src, dst, res)
	}

	dcName := top.DCs[src.DC].Name
	scope, e := s.pairScopeSLA(top, src, dst)
	res.DCScope = scope
	dcHealthy := false
	if e != nil {
		res.DCSLA = e
		if violated(*e, th) {
			res.Verdict = VerdictNetwork
			res.Reason = fmt.Sprintf("DC-level SLA violated: p99=%v drop=%.2g over %d probes", e.P99, e.DropRate, e.Probes)
			return res
		}
		dcHealthy = uint64(e.Probes) >= th.MinProbes
	}

	hv, ok := s.Heatmaps[dcName]
	if !ok {
		res.Reason = "no heatmap published for " + dcName + " yet"
		return res
	}
	cell, ok := lookupCell(hv.Heatmap, src, dst)
	if !ok || !cell.HasData {
		res.Reason = "pod pair has no heatmap data in the latest window"
		return res
	}
	res.PairP99, res.PairProbes = cell.P99, cell.Probes
	res.PairColor = cell.Color().String()
	if cell.Probes < th.MinProbes {
		// The paper's MinProbes suppression, applied at pair granularity: a
		// handful of samples makes the cell's p99 the max of a few draws, so
		// a red cell alone cannot convict the network. Fall back to the
		// DC-level evidence.
		if dcHealthy {
			res.Verdict = VerdictNotNetwork
			res.Reason = fmt.Sprintf("pod pair has only %d probes (< %d): too few to judge, and the DC-level SLA is healthy", cell.Probes, th.MinProbes)
		} else {
			res.Reason = fmt.Sprintf("pod pair has only %d probes (< %d) and no DC-level SLA evidence", cell.Probes, th.MinProbes)
		}
		return res
	}
	switch cell.Color() {
	case viz.Red:
		res.Verdict = VerdictNetwork
		res.Reason = fmt.Sprintf("pod-pair p99 %v exceeds the %v SLA while the DC is healthy: localized network problem", cell.P99, viz.RedAbove)
	case viz.Yellow:
		res.Verdict = VerdictNotNetwork
		res.Reason = fmt.Sprintf("pod-pair p99 %v is borderline but within the %v SLA; look at the application first", cell.P99, viz.RedAbove)
	default:
		res.Verdict = VerdictNotNetwork
		res.Reason = fmt.Sprintf("DC SLA healthy and pod-pair p99 %v well within SLA: not a network issue", cell.P99)
	}
	return res
}

// triageInterDC judges a cross-DC pair from the inter-DC pipeline's SLA
// scope (§6.2), since heatmaps are per-DC.
func (s *Snapshot) triageInterDC(top *topology.Topology, src, dst analysis.PodRef, res TriageResult) TriageResult {
	scope, e := s.pairScopeSLA(top, src, dst)
	res.DCScope = scope
	if e == nil {
		res.Reason = "no inter-DC SLA data for " + scope
		return res
	}
	res.DCSLA = e
	if violated(*e, s.Thresholds) {
		res.Verdict = VerdictNetwork
		res.Reason = fmt.Sprintf("inter-DC SLA violated: p99=%v drop=%.2g", e.P99, e.DropRate)
	} else {
		res.Verdict = VerdictNotNetwork
		res.Reason = fmt.Sprintf("inter-DC SLA healthy: p99=%v drop=%.2g", e.P99, e.DropRate)
	}
	return res
}

// pairScopeSLA names the SLA scope judging a pod pair — "dc/<name>" inside
// one DC, "interdc/<a>-><b>" across DCs — and returns its latest entry
// (nil when the scope has none). Both the §4.3 triage summary and the
// diagnosis chain's first assertion read this one helper: /triage is a
// thin summary over the same evidence the chain spells out.
func (s *Snapshot) pairScopeSLA(top *topology.Topology, src, dst analysis.PodRef) (string, *SLAEntry) {
	var scope string
	if src.DC != dst.DC {
		scope = "interdc/" + top.DCs[src.DC].Name + "->" + top.DCs[dst.DC].Name
	} else {
		scope = "dc/" + top.DCs[src.DC].Name
	}
	if e, ok := s.SLA[scope]; ok {
		return scope, &e
	}
	return scope, nil
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

func (se *snapshotEvidence) PairSLA(src, dst topology.ServerID) (diagnosis.SLAFacts, bool) {
	scope, e := se.snap.pairScopeSLA(se.top, podRefOf(se.top, src), podRefOf(se.top, dst))
	if e == nil {
		return diagnosis.SLAFacts{Scope: scope}, false
	}
	return diagnosis.SLAFacts{
		Scope: scope, Probes: e.Probes, P99: e.P99, DropRate: e.DropRate,
		Violated: violated(*e, se.snap.Thresholds),
	}, true
}

func (se *snapshotEvidence) PairCell(src, dst topology.ServerID) (diagnosis.CellFacts, bool) {
	srcRef, dstRef := podRefOf(se.top, src), podRefOf(se.top, dst)
	if srcRef.DC != dstRef.DC {
		return diagnosis.CellFacts{}, false // heatmaps are per-DC
	}
	hv, ok := se.snap.Heatmaps[se.top.DCs[srcRef.DC].Name]
	if !ok {
		return diagnosis.CellFacts{}, false
	}
	cell, ok := lookupCell(hv.Heatmap, srcRef, dstRef)
	if !ok || !cell.HasData {
		return diagnosis.CellFacts{}, false
	}
	return diagnosis.CellFacts{
		Probes: cell.Probes, P99: cell.P99, Color: cell.Color().String(),
		Judgeable: cell.Probes >= se.snap.Thresholds.MinProbes,
	}, true
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
