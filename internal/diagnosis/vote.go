// Package diagnosis turns failed Pingmesh probes into a located cause.
//
// The voting core follows 007 ("Democratically Finding The Cause of Packet
// Drops", PAPERS.md): every failed probe casts one vote, split 1/h across
// the h candidate hops of its path; every probe — good or bad — credits
// the hops it traversed. A switch's score is votes per traversal, so a
// spine carrying 100× the traffic of a ToR needs 100× the implicating
// failures to rank equally, and two simultaneously lossy switches both
// surface because each accumulates vote mass from its own victim flows.
// Paths come from an exact PathResolver when the deployment has one, or
// from the topology's candidate stage sets when only the fabric shape is
// known (real CSV uploads).
//
// The Engine layers an evidence chain on top (the collector → network
// model → assertions shape of kubeskoop's skoop): for one (src, dst) pair
// it runs an ordered assertion list — pair SLA, heatmap cell, per-hop vote
// score, traceroute pin, repair budget — emitting a Chain of steps with
// verdict + evidence rather than a bare color (§4.3 extended into "which
// hop?").
//
// The package also holds §5's two silent-drop detectors: the daily ToR
// black-hole detector of §5.1 (DetectBlackholes, RepairBlackholes), which
// scores ToRs on the same vote table, and the traceroute localiser of §5.2
// (PinLoss), which the Engine's pin step runs.
package diagnosis

import (
	"cmp"
	"slices"

	"pingmesh/internal/metrics"
	"pingmesh/internal/topology"
)

// Candidate is one switch in a ranked root-cause hypothesis list.
type Candidate struct {
	Switch topology.SwitchID `json:"switch_id"`
	// Score is the normalized tally: votes per traversal.
	Score float64 `json:"score"`
	// Votes is the vote mass accumulated from failed probes.
	Votes float64 `json:"votes"`
	// Coverage is how many traversals (good + bad probes) credited the
	// switch; fractional under candidate-set attribution.
	Coverage float64 `json:"coverage"`
}

// Link is one directed fabric link, ordered as traversed (A forwards to B).
type Link struct {
	A topology.SwitchID `json:"a"`
	B topology.SwitchID `json:"b"`
}

// LinkCandidate is one link in a ranked hypothesis list.
type LinkCandidate struct {
	Link     Link    `json:"link"`
	Score    float64 `json:"score"`
	Votes    float64 `json:"votes"`
	Coverage float64 `json:"coverage"`
}

type linkTally struct {
	votes      float64
	traversals float64
}

// linkIndex names every directed link of the static fabric by a dense slot,
// so a probe's link tallies are array reads rather than map lookups. A Clos
// link joins a switch to its uplink tier (or spine to spine, across DCs):
// its slot is the lower end's block, plus twice the upper end's ordinal
// among its podset's leaves or the fleet's spines, plus one if it descends.
type linkIndex struct {
	tier      []topology.Tier
	base, ord []int32 // per switch: first slot of its block; ordinal as an upper end
	links     []Link  // slot -> link; {-1, -1} where the formula names no real link
}

func newLinkIndex(top *topology.Topology) *linkIndex {
	n := top.NumSwitches()
	li := &linkIndex{tier: make([]topology.Tier, n), base: make([]int32, n), ord: make([]int32, n)}
	block := func(sws []topology.SwitchID, uplinks int) {
		for i, sw := range sws {
			li.tier[sw], li.ord[sw], li.base[sw] = top.Switch(sw).Tier, int32(i), int32(len(li.links))
			for range 2 * uplinks {
				li.links = append(li.links, Link{-1, -1})
			}
		}
	}
	join := func(lower, upper []topology.SwitchID) {
		for _, a := range lower {
			for _, b := range upper {
				li.links[li.slot(a, b)], li.links[li.slot(b, a)] = Link{a, b}, Link{b, a}
			}
		}
	}
	var spines []topology.SwitchID
	for d := range top.DCs {
		spines = append(spines, top.DCs[d].Spines...)
	}
	block(spines, len(spines))
	join(spines, spines)
	for d := range top.DCs {
		for p := range top.DCs[d].Podsets {
			ps := &top.DCs[d].Podsets[p]
			tors := make([]topology.SwitchID, len(ps.Pods))
			for q := range tors {
				tors[q] = ps.Pods[q].ToR
			}
			block(ps.Leaves, len(spines))
			block(tors, len(ps.Leaves))
			join(ps.Leaves, top.DCs[d].Spines)
			join(tors, ps.Leaves)
		}
	}
	return li
}

// slot is the formula alone: a caller holding an arbitrary pair (a fixture
// path, a traceroute off the model) must check that links[slot] names it.
func (li *linkIndex) slot(a, b topology.SwitchID) int32 {
	lo, hi, down := a, b, int32(0)
	if li.tier[a] > li.tier[b] {
		lo, hi, down = b, a, 1
	}
	return li.base[lo] + 2*li.ord[hi] + down
}

// VoteTable accumulates 007-style root-cause votes, keyed by switch and by
// link. Not safe for concurrent use; Collector adds the locking.
//
// Failed probes' hop lists are additionally retained (up to maxFailLog
// entries) so ranking can explain failures away greedily: a single loud
// fault — a black-hole dropping whole pairs — otherwise spreads enough
// collateral vote mass over the innocent hops of its victims' paths to
// bury a second, quieter fault.
type VoteTable struct {
	votes      []float64           // vote mass per SwitchID
	traversals []float64           // traversal credit per SwitchID
	li         *linkIndex          // nil: every link tallies in links
	dense      []linkTally         // one per linkIndex slot
	links      map[Link]*linkTally // links the index does not name
	observed   uint64
	failures   uint64
	dropped    *metrics.Counter // failures the full explain-away log turned away (nil: uncounted)

	// failure log: flattened hop (or candidate-hop) lists of failed
	// probes, each entry having cast vote share 1/len on every hop.
	failHops []topology.SwitchID
	failEnds []int
}

// maxFailLog caps how many failures the explain-away log retains; beyond
// it, votes still tally but greedy ranking can no longer subtract the
// overflow (a window with >128k failures has bigger problems), and each
// one turned away is counted (diagnosis.faillog_dropped).
const maxFailLog = 1 << 17

// NewVoteTable sizes a table for a fleet of numSwitches switches.
func NewVoteTable(numSwitches int) *VoteTable {
	return &VoteTable{
		votes:      make([]float64, numSwitches),
		traversals: make([]float64, numSwitches),
		links:      make(map[Link]*linkTally),
	}
}

// Reset clears every tally while keeping the allocated storage.
func (vt *VoteTable) Reset() {
	for i := range vt.votes {
		vt.votes[i] = 0
		vt.traversals[i] = 0
	}
	clear(vt.dense)
	for _, lt := range vt.links {
		*lt = linkTally{}
	}
	vt.observed, vt.failures = 0, 0
	vt.failHops = vt.failHops[:0]
	vt.failEnds = vt.failEnds[:0]
}

// logFailure retains one failed probe's hop list for explain-away ranking.
func (vt *VoteTable) logFailure(hops []topology.SwitchID) {
	if len(vt.failEnds) >= maxFailLog {
		if vt.dropped != nil {
			vt.dropped.Inc()
		}
		return
	}
	vt.failHops = append(vt.failHops, hops...)
	vt.failEnds = append(vt.failEnds, len(vt.failHops))
}

// perTraversal normalizes a vote tally: votes per traversal, 0 uncovered.
func perTraversal(votes, traversals float64) float64 {
	if traversals <= 0 {
		return 0
	}
	return votes / traversals
}

// Score returns a switch's current normalized tally.
func (vt *VoteTable) Score(sw topology.SwitchID) float64 {
	if int(sw) >= len(vt.votes) {
		return 0
	}
	return perTraversal(vt.votes[sw], vt.traversals[sw])
}

// Votes returns a switch's accumulated vote mass.
func (vt *VoteTable) Votes(sw topology.SwitchID) float64 {
	if int(sw) >= len(vt.votes) {
		return 0
	}
	return vt.votes[sw]
}

// ObservePath ingests one probe whose exact hop sequence is known (a
// fabric model's plan, or a recovered traceroute). A failed probe splits its vote 1/h
// across the h hops and 1/(h-1) across the h-1 links; every probe credits
// each hop and link with one traversal. Allocation-free once the link set
// has been seen.
func (vt *VoteTable) ObservePath(hops []topology.SwitchID, failed bool) {
	vt.observed++
	if len(hops) == 0 {
		return
	}
	if failed {
		vt.failures++
		vt.logFailure(hops)
		share := 1 / float64(len(hops))
		for _, sw := range hops {
			vt.votes[sw] += share
			vt.traversals[sw]++
		}
	} else {
		for _, sw := range hops {
			vt.traversals[sw]++
		}
	}
	if len(hops) < 2 {
		return
	}
	linkShare := 0.0
	if failed {
		linkShare = 1 / float64(len(hops)-1)
	}
	for i := 1; i < len(hops); i++ {
		vt.linkTally(Link{A: hops[i-1], B: hops[i]}).add(linkShare, 1)
	}
}

// traversalCounts sums successful probes' traversal credit as integer
// counts, per switch and per dense link slot, for one addCounts. A
// successful probe casts no vote and adds exactly 1 to each hop's and
// link's traversals, so its credit can wait and arrive as a count.
type traversalCounts struct {
	probes  uint64
	sw      []uint32            // by SwitchID
	link    []uint32            // by linkIndex slot
	swSet   []topology.SwitchID // switches with a nonzero count
	linkSet []int32             // slots with a nonzero count
}

// add counts one successful probe's path. It counts nothing and returns
// false when a link of the path is not in li (a fixture, a traceroute off
// the model): that probe takes ObservePath.
func (tc *traversalCounts) add(li *linkIndex, hops []topology.SwitchID) bool {
	var slots [5]int32 // a modeled route has at most 6 hops
	if len(hops) > len(slots)+1 {
		return false
	}
	for i := 1; i < len(hops); i++ {
		s := li.slot(hops[i-1], hops[i])
		if int(s) >= len(li.links) || li.links[s] != (Link{hops[i-1], hops[i]}) {
			return false
		}
		slots[i-1] = s
	}
	for _, sw := range hops {
		if tc.sw[sw] == 0 {
			tc.swSet = append(tc.swSet, sw)
		}
		tc.sw[sw]++
	}
	for _, s := range slots[:max(len(hops)-1, 0)] {
		if tc.link[s] == 0 {
			tc.linkSet = append(tc.linkSet, s)
		}
		tc.link[s]++
	}
	tc.probes++
	return true
}

// addCounts credits tc's probes and empties it. Traversal credit is an
// integer-valued float64, and integer sums below 2^53 are exact in any
// order, so the table ends bit-identical to ObservePath-ing each of the
// probes wherever they fell among the others.
func (vt *VoteTable) addCounts(tc *traversalCounts) {
	vt.observed += tc.probes
	for _, sw := range tc.swSet {
		vt.traversals[sw] += float64(tc.sw[sw])
		tc.sw[sw] = 0
	}
	for _, s := range tc.linkSet {
		vt.dense[s].traversals += float64(tc.link[s])
		tc.link[s] = 0
	}
	tc.probes, tc.swSet, tc.linkSet = 0, tc.swSet[:0], tc.linkSet[:0]
}

// ObserveStages ingests one probe whose exact ECMP choices are unknown: ps
// holds every candidate switch per routing stage. A failed probe splits
// its vote 1/h across all h candidate hops; traversal credit is the
// expectation under uniform ECMP — 1/m per member of an m-wide stage.
// Links are not tallied (stage adjacency is a cross product, not a path).
func (vt *VoteTable) ObserveStages(ps *PathSet, failed bool) {
	vt.observed++
	h := ps.Hops()
	if h == 0 {
		return
	}
	voteShare := 0.0
	if failed {
		vt.failures++
		vt.logFailure(ps.hops)
		voteShare = 1 / float64(h)
	}
	for s := 0; s < ps.Stages(); s++ {
		members := ps.Stage(s)
		credit := 1 / float64(len(members))
		for _, sw := range members {
			vt.votes[sw] += voteShare
			vt.traversals[sw] += credit
		}
	}
}

// AddVotes feeds a pre-aggregated tally: votes units of vote mass against
// coverage traversals. The detector refactors (blackhole victim counting)
// use this to express their bespoke symptom counts in the shared scorer.
func (vt *VoteTable) AddVotes(sw topology.SwitchID, votes, coverage float64) {
	vt.votes[sw] += votes
	vt.traversals[sw] += coverage
}

func (vt *VoteTable) linkTally(l Link) *linkTally {
	if li := vt.li; li != nil {
		if s := li.slot(l.A, l.B); int(s) < len(li.links) && li.links[s] == l {
			return &vt.dense[s]
		}
	}
	lt := vt.links[l]
	if lt == nil {
		lt = &linkTally{}
		vt.links[l] = lt
	}
	return lt
}

func (lt *linkTally) add(votes, traversals float64) {
	lt.votes += votes
	lt.traversals += traversals
}

// sortRank orders worst first: score desc, votes desc, switch asc.
func sortRank(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(b.Votes, a.Votes), cmp.Compare(a.Switch, b.Switch))
	})
}

// AppendRankGreedy ranks by iterative explain-away: pick the worst switch
// by normalized score, subtract the full vote mass of every logged failure
// whose path (or candidate set) contains it, and repeat on the residual
// tallies. Under simultaneous faults this keeps a quiet fault visible: the
// louder fault's victims stop voting for the innocent hops they shared
// once the loud fault is chosen, so the quiet fault's own vote mass
// dominates the next round. Each candidate carries its residual tallies —
// the vote mass not explained by earlier picks. Failures past the log cap
// (or fed via AddVotes) cannot be explained away; when a round explains
// nothing, the remaining switches are appended in one-shot order.
func (vt *VoteTable) AppendRankGreedy(dst []Candidate) []Candidate {
	const eps = 1e-9
	votes := append([]float64(nil), vt.votes...)
	removed := make([]bool, len(vt.failEnds))
	for {
		best := -1
		var bestScore, bestVotes float64
		for sw, v := range votes {
			if v <= eps {
				continue
			}
			score := perTraversal(v, vt.traversals[sw])
			if best < 0 || score > bestScore ||
				(score == bestScore && v > bestVotes) {
				best, bestScore, bestVotes = sw, score, v
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, Candidate{
			Switch: topology.SwitchID(best), Score: bestScore,
			Votes: bestVotes, Coverage: vt.traversals[best],
		})
		explained := 0
		start := 0
		for f, end := range vt.failEnds {
			hops := vt.failHops[start:end]
			start = end
			if removed[f] || !slices.Contains(hops, topology.SwitchID(best)) {
				continue
			}
			share := 1 / float64(len(hops))
			for _, sw := range hops {
				votes[sw] -= share
			}
			removed[f] = true
			explained++
		}
		if explained == 0 {
			// Nothing left to explain (AddVotes mass or overflow): emit the
			// residual tail one-shot so the ranking still terminates.
			votes[best] = 0
			tail := len(dst)
			for sw, v := range votes {
				if v <= eps {
					continue
				}
				dst = append(dst, Candidate{Switch: topology.SwitchID(sw),
					Score: perTraversal(v, vt.traversals[sw]), Votes: v, Coverage: vt.traversals[sw]})
			}
			sortRank(dst[tail:])
			break
		}
	}
	return dst
}

// AppendRankLinks appends every link with vote mass to dst, ranked worst
// first: score desc, votes desc, link asc.
func (vt *VoteTable) AppendRankLinks(dst []LinkCandidate) []LinkCandidate {
	add := func(l Link, lt *linkTally) {
		if lt.votes <= 0 {
			return
		}
		dst = append(dst, LinkCandidate{Link: l,
			Score: perTraversal(lt.votes, lt.traversals), Votes: lt.votes, Coverage: lt.traversals})
	}
	for s := range vt.dense {
		add(vt.li.links[s], &vt.dense[s])
	}
	for l, lt := range vt.links {
		add(l, lt)
	}
	slices.SortFunc(dst, func(a, b LinkCandidate) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(b.Votes, a.Votes),
			cmp.Compare(a.Link.A, b.Link.A), cmp.Compare(a.Link.B, b.Link.B))
	})
	return dst
}

// SortByScore orders candidates by score desc, then switch asc — the §5.1
// black-hole candidate order (score ties break on device identity only).
func SortByScore(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Switch, b.Switch))
	})
}
