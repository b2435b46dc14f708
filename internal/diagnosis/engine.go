package diagnosis

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/metrics"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// Step verdicts: pass means the assertion holds (that layer is healthy),
// fail means it implicates the network, skip means the evidence is
// unavailable.
const (
	StepPass = "pass"
	StepFail = "fail"
	StepSkip = "skip"
)

// Assertion names, in chain order.
const (
	AssertPairSLA    = "pair-sla"
	AssertCell       = "heatmap-cell"
	AssertHopVotes   = "hop-votes"
	AssertTracePin   = "traceroute-pin"
	AssertRepairBudg = "repair-budget"
)

// Step is one assertion's outcome with its supporting evidence.
type Step struct {
	Assertion string `json:"assertion"`
	Verdict   string `json:"verdict"`
	Detail    string `json:"detail"`
	// Hop names the implicated switch, when the assertion localizes one.
	Hop string `json:"hop,omitempty"`
	// Score carries the assertion's headline number: vote score for
	// hop-votes, estimated per-traversal loss for traceroute-pin.
	Score float64 `json:"score,omitempty"`
}

// Chain is the full evidence chain for one (src, dst) diagnosis query.
type Chain struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	// Path is the modeled hop sequence of a representative five-tuple
	// (empty when no path source is wired).
	Path    []string `json:"path"`
	Steps   []Step   `json:"steps"`
	Verdict string   `json:"verdict"`
	// PinnedHop names the located faulty switch when any assertion pinned
	// one (traceroute pin wins over vote score).
	PinnedHop string `json:"pinned_hop,omitempty"`
}

// SLAFacts is the SLA row of the pair's scope, the first assertion's
// evidence: its numbers and the verdict the SLA rule
// (analysis.Thresholds.Judge) gave the row when the DSA published it.
type SLAFacts struct {
	Scope    string
	Probes   int64
	P99      time.Duration
	DropRate float64
	Verdict  string // analysis.VerdictNetwork, VerdictNotNetwork or VerdictInconclusive
	Reason   string
}

// CellFacts is the pod-pair heatmap cell, the second assertion's evidence.
type CellFacts struct {
	Probes uint64 // successful probes behind the cell
	P99    time.Duration
	// Color is the cell classification ("green"/"yellow"/"red").
	Color string
	// Floor is the probe floor the cell must clear to be judged: the SLA
	// floor, analysis.MinProbes, applied at pair granularity.
	Floor uint64
}

// EvidenceSource supplies the read-side evidence for the first three
// assertions. The portal's immutable snapshot implements it; a nil source
// leaves the first two steps without evidence and judges hop votes against
// the collector's ranking as it stands.
type EvidenceSource interface {
	// PairSLA returns the SLA row of the pair's scope (DC or inter-DC), nil
	// when the scope has none.
	PairSLA(src, dst topology.ServerID) *SLAFacts
	// PairCell returns the pair's pod-pair heatmap cell, nil when it has no
	// data (heatmaps are per-DC: always nil across DCs).
	PairCell(src, dst topology.ServerID) *CellFacts
	// Ranking returns the epoch's vote ranking (nil when none was published).
	Ranking() *Ranking
}

// Triage is §4.3's "is it the network?" as the chain's first two steps
// answer it: both steps, the verdict they give together, and why.
type Triage struct {
	SLA, Cell Step
	Verdict   string
	Reason    string
}

// Decide is the decision table of the chain's first two steps, the one
// place SLA and heatmap evidence become a verdict; /triage is this table
// and nothing more. sla and cell are nil when the evidence is absent;
// crossDC marks a pair that no heatmap covers. A failing step is the
// network (the SLA's first); else a passing step says it is not; else the
// evidence is inconclusive.
func Decide(sla *SLAFacts, cell *CellFacts, crossDC bool) Triage {
	t := Triage{SLA: slaStep(sla), Cell: cellStep(cell, crossDC)}
	switch {
	case t.SLA.Verdict == StepFail:
		t.Verdict, t.Reason = analysis.VerdictNetwork, t.SLA.Detail
	case t.Cell.Verdict == StepFail:
		t.Verdict, t.Reason = analysis.VerdictNetwork, t.Cell.Detail
	case t.SLA.Verdict == StepPass || t.Cell.Verdict == StepPass:
		t.Verdict, t.Reason = analysis.VerdictNotNetwork, t.SLA.Detail+"; "+t.Cell.Detail
	default:
		t.Verdict, t.Reason = analysis.VerdictInconclusive, t.SLA.Detail+"; "+t.Cell.Detail
	}
	return t
}

// slaStep turns the row's verdict into the pair-SLA step: network fails,
// not-network passes, a row below the probe floor is a skip.
func slaStep(f *SLAFacts) Step {
	st := Step{Assertion: AssertPairSLA, Verdict: StepSkip, Detail: "no SLA row for the pair's scope"}
	if f == nil {
		return st
	}
	st.Detail = fmt.Sprintf("scope %s: %s (p99=%v drop=%.2g over %d probes)", f.Scope, f.Reason, f.P99, f.DropRate, f.Probes)
	switch f.Verdict {
	case analysis.VerdictNetwork:
		st.Verdict = StepFail
	case analysis.VerdictNotNetwork:
		st.Verdict = StepPass
	}
	return st
}

// cellStep judges the pod-pair cell: red fails, green or yellow passes, a
// cell below the probe floor is a skip.
func cellStep(f *CellFacts, crossDC bool) Step {
	st := Step{Assertion: AssertCell, Verdict: StepSkip}
	switch {
	case crossDC:
		st.Detail = "heatmaps are per-DC: no cell covers a cross-DC pair"
	case f == nil:
		st.Detail = "pod pair has no heatmap cell in the latest window"
	case f.Probes < f.Floor:
		st.Detail = fmt.Sprintf("pod-pair cell has only %d probes (< %d): too few to judge", f.Probes, f.Floor)
	case f.Color == "red":
		st.Verdict, st.Detail = StepFail, fmt.Sprintf("pod-pair cell red: p99=%v over %d probes", f.P99, f.Probes)
	default:
		st.Verdict, st.Detail = StepPass, fmt.Sprintf("pod-pair cell %s: p99=%v over %d probes", f.Color, f.P99, f.Probes)
	}
	return st
}

const (
	// suspectScore is the normalized vote score that makes a path hop a
	// suspect: an order of magnitude above what the baseline ~1e-4 drop
	// rate can produce on a 6-hop path.
	suspectScore = 0.01
	// portTries is how many source ports the pin step samples when looking
	// for a five-tuple that reproduces the loss.
	portTries = 8
)

// Engine walks a (src, dst) pair's modeled path through the ordered
// assertion list and emits an evidence Chain. Every dependency is
// optional: a missing one turns its assertion into a skip, so the engine
// degrades from full fabric-model diagnosis (sim) down to SLA-only
// summaries (real deployments without a prober).
type Engine struct {
	Top *topology.Topology
	// Votes ranks per-hop vote scores (assertion 3) for callers that bring
	// no published ranking of their own.
	Votes *Collector
	// Paths models exact per-tuple paths; also guides the pin step toward
	// tuples that cross the top vote suspect.
	Paths PathResolver
	// Tracer issues the TTL sweeps of the pin step (assertion 4).
	Tracer TraceProber
	// Budget reports the repair budget (remaining, per-day) for
	// assertion 5; nil skips it.
	Budget func() (remaining, perDay int)

	// ProbesPerHop is the pin sweep's per-TTL probe count (default 200).
	ProbesPerHop int
	// Seed makes pin sweeps reproducible.
	Seed uint64
	// Clock times chains for the latency histogram (default wall clock).
	Clock simclock.Clock
	// Registry receives diagnosis.chain.* metrics; nil creates one.
	Registry *metrics.Registry

	once    sync.Once
	reg     *metrics.Registry
	cChains *metrics.Counter
	cPins   *metrics.Counter
	hDur    *metrics.LockedHistogram
}

// defaults resolves zero-value knobs and metric handles once; chains can
// then run concurrently (the portal serves /diagnose from many goroutines).
func (e *Engine) defaults() {
	e.once.Do(e.applyDefaults)
}

func (e *Engine) applyDefaults() {
	if e.ProbesPerHop <= 0 {
		e.ProbesPerHop = 200
	}
	if e.Clock == nil {
		e.Clock = simclock.NewReal()
	}
	if e.Registry == nil {
		e.Registry = metrics.NewRegistry()
	}
	e.reg = e.Registry
	e.cChains = e.reg.Counter("diagnosis.chains")
	e.cPins = e.reg.Counter("diagnosis.chain_pins")
	e.hDur = e.reg.Histogram("diagnosis.chain.duration")
}

// Metrics returns the registry holding the diagnosis.chain.* metrics.
func (e *Engine) Metrics() *metrics.Registry {
	e.defaults()
	return e.reg
}

// enginePorts synthesizes the deterministic five-tuples the pin step
// sweeps: distinct source ports against the traceroute destination port.
const (
	engineBaseSrcPort = 33434
	engineDstPort     = 8765
)

// Diagnose runs the assertion chain for one server pair. ev supplies the
// snapshot evidence Decide judges in the first two steps (nil supplies
// none); a hop pinned by votes or by the TTL sweep overrides its verdict.
func (e *Engine) Diagnose(src, dst topology.ServerID, ev EvidenceSource) *Chain {
	e.defaults()
	start := e.Clock.Now()
	ch := &Chain{
		Src: e.Top.Server(src).Name,
		Dst: e.Top.Server(dst).Name,
	}

	// The modeled path of a representative five-tuple, for operators to
	// read the chain against.
	if e.Paths != nil {
		if hops, _, ok := e.Paths.AppendPaths(nil, src, dst, [][2]uint16{{engineBaseSrcPort, engineDstPort}}); ok {
			for _, sw := range hops {
				ch.Path = append(ch.Path, e.Top.Switch(sw).Name)
			}
		}
	}

	var sla *SLAFacts
	var cell *CellFacts
	if ev != nil {
		sla, cell = ev.PairSLA(src, dst), ev.PairCell(src, dst)
	}
	first := Decide(sla, cell, e.Top.Server(src).DC != e.Top.Server(dst).DC)
	ch.Steps = append(ch.Steps, first.SLA, first.Cell)
	voteHop, _, votesFail := e.assertHopVotes(ch, src, dst, e.ranking(ev))
	pinHop, _, pinFail := e.assertTracePin(ch, src, dst, voteHop)
	e.assertRepairBudget(ch)

	switch {
	case pinFail:
		ch.Verdict = analysis.VerdictNetwork
		ch.PinnedHop = e.Top.Switch(pinHop).Name
		e.cPins.Inc()
	case votesFail:
		ch.Verdict = analysis.VerdictNetwork
		ch.PinnedHop = e.Top.Switch(voteHop).Name
		e.cPins.Inc()
	default:
		ch.Verdict = first.Verdict
	}

	e.cChains.Inc()
	e.hDur.Observe(e.Clock.Now().Sub(start))
	return ch
}

// ranking picks the vote ranking a chain reads: the evidence source's
// published one, else the collector's (cached until the next ingest).
func (e *Engine) ranking(ev EvidenceSource) (r *Ranking) {
	if ev != nil {
		r = ev.Ranking()
	}
	if r == nil && e.Votes != nil {
		r = e.Votes.Snapshot(0)
	}
	return r
}

// maxVoteHop returns the pair's most-implicated candidate hop: the
// best-ranked switch of the fleet-wide explain-away ranking that lies on
// one of the pair's candidate stages. Selection uses explained (residual)
// vote mass — a loud fault elsewhere cannot nominate an innocent shared
// hop — while the returned score is the hop's raw vote score, the evidence
// magnitude the threshold judges. hop is -1 when no ranked switch touches
// the pair; ok is false when there is no ranking or the endpoints are
// unknown.
func (e *Engine) maxVoteHop(src, dst topology.ServerID, r *Ranking) (hop topology.SwitchID, score float64, ok bool) {
	var ps PathSet
	if r == nil || !CandidateHops(&ps, e.Top, src, dst) {
		return -1, 0, false
	}
	hop, score = r.topHop(&ps)
	return hop, score, true
}

// TopSuspect returns the name and score of the pair's highest-scoring
// candidate hop when it clears suspectScore — the cheap, votes-only
// summary /triage attaches without running a full chain.
func (e *Engine) TopSuspect(src, dst topology.ServerID, ev EvidenceSource) (string, float64, bool) {
	e.defaults()
	best, score, ok := e.maxVoteHop(src, dst, e.ranking(ev))
	if !ok || score < suspectScore {
		return "", 0, false
	}
	return e.Top.Switch(best).Name, score, true
}

// assertHopVotes checks every candidate hop of the pair against the vote
// ranking.
func (e *Engine) assertHopVotes(ch *Chain, src, dst topology.ServerID, r *Ranking) (hop topology.SwitchID, score float64, fail bool) {
	if r == nil {
		ch.Steps = append(ch.Steps, Step{Assertion: AssertHopVotes, Verdict: StepSkip, Detail: "no vote collector wired"})
		return -1, 0, false
	}
	best, bestScore, ok := e.maxVoteHop(src, dst, r)
	if !ok {
		ch.Steps = append(ch.Steps, Step{Assertion: AssertHopVotes, Verdict: StepSkip, Detail: "pair endpoints unknown to the topology"})
		return -1, 0, false
	}
	if best >= 0 && bestScore >= suspectScore {
		ch.Steps = append(ch.Steps, Step{Assertion: AssertHopVotes, Verdict: StepFail, Hop: e.Top.Switch(best).Name, Score: bestScore,
			Detail: fmt.Sprintf("%s holds vote score %.4f (threshold %.4f) across the pair's candidate hops", e.Top.Switch(best).Name, bestScore, suspectScore)})
		return best, bestScore, true
	}
	ch.Steps = append(ch.Steps, Step{Assertion: AssertHopVotes, Verdict: StepPass, Score: bestScore,
		Detail: fmt.Sprintf("no candidate hop above vote score %.4f (max %.4f)", suspectScore, bestScore)})
	return best, bestScore, false
}

// assertTracePin runs the §5.2 localiser (PinLoss) over a handful of the
// pair's five-tuples and reports its first pin. When the vote step
// produced a suspect, tuples whose modeled path crosses it are among them
// — the vote table guides the traceroute, which then confirms or clears
// the suspicion independently.
func (e *Engine) assertTracePin(ch *Chain, src, dst topology.ServerID, suspect topology.SwitchID) (hop topology.SwitchID, loss float64, fail bool) {
	if e.Tracer == nil {
		ch.Steps = append(ch.Steps, Step{Assertion: AssertTracePin, Verdict: StepSkip, Detail: "no trace prober wired"})
		return -1, 0, false
	}
	rng := rand.New(rand.NewPCG(e.Seed^0xd1a9, uint64(src)<<32|uint64(uint32(dst))))
	var tuples []Tuple
	for _, sport := range e.pinPorts(src, dst, suspect) {
		ft := FiveTuple{Src: src, Dst: dst, SrcPort: sport, DstPort: engineDstPort}
		if hops := e.tupleHops(ft, rng); len(hops) > 0 {
			tuples = append(tuples, Tuple{FiveTuple: ft, Hops: hops})
		}
	}
	if pins := PinLoss(e.Tracer, tuples, e.ProbesPerHop, rng); len(pins) > 0 {
		p, name := pins[0], e.Top.Switch(pins[0].Switch).Name
		ch.Steps = append(ch.Steps, Step{Assertion: AssertTracePin, Verdict: StepFail, Hop: name, Score: p.Loss,
			Detail: fmt.Sprintf("TTL sweep pins %s: per-traversal loss %.4f confirmed at 5x probes (threshold %.4f)",
				name, p.Loss, pinThreshold)})
		return p.Switch, p.Loss, true
	}
	ch.Steps = append(ch.Steps, Step{Assertion: AssertTracePin, Verdict: StepPass,
		Detail: fmt.Sprintf("TTL sweep over %d tuples found no hop sustaining %.4f loss", len(tuples), pinThreshold)})
	return -1, 0, false
}

// pinPorts picks the source ports the pin step sweeps. With a path model
// wired it scans a wide port window and keeps tuples for ECMP coverage —
// every candidate hop of the pair should appear in at least one swept
// tuple, or a fault on an ECMP member none of the tuples crosses is
// unobservable — plus up to three tuples crossing the vote suspect so its
// per-hop mean averages over more samples. Without a model it falls back
// to portTries sequential ports.
func (e *Engine) pinPorts(src, dst topology.ServerID, suspect topology.SwitchID) []uint16 {
	ports := make([]uint16, 0, 2*portTries)
	if e.Paths != nil {
		const suspectQuota = 3
		covered := map[topology.SwitchID]bool{}
		suspectTuples := 0
		// The whole port window is one run of the pair: one resolver call.
		window := make([][2]uint16, 8*portTries)
		for i := range window {
			window[i] = [2]uint16{uint16(engineBaseSrcPort + i), engineDstPort}
		}
		paths, h, ok := e.Paths.AppendPaths(nil, src, dst, window)
		for i := 0; ok && i < len(window) && len(ports) < 2*portTries; i++ {
			sport, hops := window[i][0], paths[i*h:(i+1)*h]
			fresh, hitSuspect := false, false
			for _, sw := range hops {
				if !covered[sw] {
					fresh = true
				}
				if sw == suspect {
					hitSuspect = true
				}
			}
			if !fresh && !(hitSuspect && suspectTuples < suspectQuota) {
				continue
			}
			for _, sw := range hops {
				covered[sw] = true
			}
			if hitSuspect {
				suspectTuples++
			}
			ports = append(ports, sport)
		}
	}
	for i := 0; len(ports) < portTries; i++ {
		ports = append(ports, uint16(engineBaseSrcPort+i))
	}
	return ports
}

// tupleHops resolves one five-tuple's hop sequence: the fabric model when
// wired, a TTL-sweep path recovery otherwise.
func (e *Engine) tupleHops(ft FiveTuple, rng *rand.Rand) []topology.SwitchID {
	if e.Paths != nil {
		if h, _, ok := e.Paths.AppendPaths(nil, ft.Src, ft.Dst, [][2]uint16{{ft.SrcPort, ft.DstPort}}); ok {
			return h
		}
	}
	return TracePath(e.Tracer, ft, rng)
}

func (e *Engine) assertRepairBudget(ch *Chain) {
	remaining, perDay := 0, 0
	if e.Budget != nil {
		remaining, perDay = e.Budget()
	}
	if perDay <= 0 {
		ch.Steps = append(ch.Steps, Step{Assertion: AssertRepairBudg, Verdict: StepSkip, Detail: "no repair service wired"})
		return
	}
	if remaining > 0 {
		ch.Steps = append(ch.Steps, Step{Assertion: AssertRepairBudg, Verdict: StepPass,
			Detail: fmt.Sprintf("repair budget available: %d of %d actions left today", remaining, perDay)})
		return
	}
	ch.Steps = append(ch.Steps, Step{Assertion: AssertRepairBudg, Verdict: StepFail,
		Detail: fmt.Sprintf("repair budget exhausted (%d/day): mitigation waits for the next day or an engineer", perDay)})
}
