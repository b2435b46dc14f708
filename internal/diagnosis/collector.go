package diagnosis

import (
	"sync"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// PathResolver recovers exact hop sequences, one run of a (src, dst)
// pair's probes at a time. A simulator can implement it from its fabric
// model, or a real deployment from TCP traceroutes of the pair's
// five-tuples; without either it stays nil and the collector falls back
// to topology candidate stage sets.
type PathResolver interface {
	// AppendPaths appends the hops of each {sport, dport} in ports for a
	// probe from src to dstID, in order, and returns the extended slice
	// and the route length they all share (the pair's route shape fixes
	// it). ok is false, with dst unchanged, when the pair has no route.
	AppendPaths(dst []topology.SwitchID, src, dstID topology.ServerID, ports [][2]uint16) ([]topology.SwitchID, int, bool)
}

// CollectorConfig wires a Collector.
type CollectorConfig struct {
	Top *topology.Topology
	// Paths, when set, supplies exact per-five-tuple hop sequences
	// (including link tallies). Nil means candidate stage sets from the
	// topology alone.
	Paths PathResolver
	// Registry receives diagnosis.* counters; nil creates a private one.
	Registry *metrics.Registry
}

// Collector ingests probe records into a VoteTable. Safe for concurrent
// use: endpoints and paths resolve outside the lock, a chunk applies under
// one acquisition; allocation-free once warm.
type Collector struct {
	top   *topology.Topology
	paths PathResolver
	reg   *metrics.Registry

	cObserved *metrics.Counter // probes ingested
	cVotes    *metrics.Counter // failed probes that cast votes
	cSkipped  *metrics.Counter // records with unknown endpoints
	cRanked   *metrics.Counter // rankings computed (one per publish that saw new probes)

	// free holds idle ingest scratch, sized past any plausible number of
	// concurrent uploaders (an extra one allocates its own). Not a
	// sync.Pool: the race runtime drops pooled items on purpose, and the
	// zero-alloc guard runs under it.
	free chan *ingestChunk

	mu     sync.Mutex
	vt     *VoteTable
	ps     PathSet
	ranked *Ranking // the full ranking of vt as it stands; nil once vt moves on
}

// observeChunk is how many records resolve before one lock applies them.
const observeChunk = 256

// ingestChunk is one chunk's resolved probes. In exact-path mode, failures
// (and successes with a link off the dense index) keep their hop lists, in
// record order, and the other successes are summed into counts; in
// candidate-stage mode every probe keeps its endpoint pair.
type ingestChunk struct {
	hops   []topology.SwitchID
	ends   []int32
	pairs  [][2]topology.ServerID
	failed []bool
	counts traversalCounts

	ports [][2]uint16         // one run's five-tuple ports
	run   []topology.SwitchID // one run's paths, from PathResolver
}

// NewCollector builds a collector for a fleet.
func NewCollector(cfg CollectorConfig) *Collector {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Collector{
		top:       cfg.Top,
		paths:     cfg.Paths,
		reg:       reg,
		cObserved: reg.Counter("diagnosis.probes_observed"),
		cVotes:    reg.Counter("diagnosis.votes_cast"),
		cSkipped:  reg.Counter("diagnosis.records_skipped"),
		cRanked:   reg.Counter("diagnosis.episodes_ranked"),
		vt:        NewVoteTable(cfg.Top.NumSwitches()),
		free:      make(chan *ingestChunk, 16),
	}
	c.vt.dropped = reg.Counter("diagnosis.faillog_dropped")
	c.vt.li = newLinkIndex(cfg.Top)
	c.vt.dense = make([]linkTally, len(c.vt.li.links))
	return c
}

// Metrics returns the registry holding the diagnosis.* counters.
func (c *Collector) Metrics() *metrics.Registry { return c.reg }

// ObserveBatch ingests a record batch (the agent upload sink). Records
// whose endpoints are not in the topology (VIPs, stale entries) or that
// have no route are counted and skipped. An agent uploads its records
// grouped by peer, so in exact-path mode each run of one (src, dst) pair
// resolves with one PathResolver call.
func (c *Collector) ObserveBatch(recs []probe.Record) {
	var ch *ingestChunk
	select {
	case ch = <-c.free:
	default:
		ch = &ingestChunk{counts: traversalCounts{sw: make([]uint32, len(c.vt.votes)), link: make([]uint32, len(c.vt.dense))}}
	}
	for len(recs) > 0 {
		n := min(len(recs), observeChunk)
		c.observeChunk(ch, recs[:n])
		recs = recs[n:]
	}
	select {
	case c.free <- ch:
	default:
	}
}

func (c *Collector) observeChunk(ch *ingestChunk, recs []probe.Record) {
	ch.hops, ch.ends, ch.pairs, ch.failed = ch.hops[:0], ch.ends[:0], ch.pairs[:0], ch.failed[:0]
	var src, dst topology.ServerID
	var okS, okD bool
	votes := 0
	for i, j := 0, 0; i < len(recs); i = j {
		r := &recs[i]
		ch.ports = append(ch.ports[:0], [2]uint16{r.SrcPort, r.DstPort})
		for j = i + 1; j < len(recs) && recs[j].Dst == r.Dst && recs[j].Src == r.Src; j++ {
			ch.ports = append(ch.ports, [2]uint16{recs[j].SrcPort, recs[j].DstPort})
		}
		// An upload is one agent's records: resolve src when it changes.
		if i == 0 || r.Src != recs[i-1].Src {
			src, okS = c.top.ServerByAddr(r.Src)
		}
		dst, okD = c.top.ServerByAddr(r.Dst)
		if !okS || !okD {
			continue
		}
		run, paths, h := recs[i:j], ch.run[:0], 0
		if c.paths != nil {
			var ok bool
			if paths, h, ok = c.paths.AppendPaths(paths, src, dst, ch.ports); !ok {
				continue
			}
			ch.run = paths
		}
		for k := range run {
			failed := !run[k].Success()
			if c.paths == nil {
				ch.pairs = append(ch.pairs, [2]topology.ServerID{src, dst})
			} else if hops := paths[k*h : (k+1)*h]; failed || !ch.counts.add(c.vt.li, hops) {
				ch.hops = append(ch.hops, hops...)
				ch.ends = append(ch.ends, int32(len(ch.hops)))
			} else {
				continue // a success, counted
			}
			ch.failed = append(ch.failed, failed)
			if failed {
				votes++
			}
		}
	}
	observed := int64(len(ch.failed)) + int64(ch.counts.probes)

	c.mu.Lock()
	start := int32(0)
	for i, end := range ch.ends {
		c.vt.ObservePath(ch.hops[start:end], ch.failed[i])
		start = end
	}
	c.vt.addCounts(&ch.counts)
	for i, p := range ch.pairs {
		CandidateHops(&c.ps, c.top, p[0], p[1])
		c.vt.ObserveStages(&c.ps, ch.failed[i])
	}
	c.ranked = nil
	c.mu.Unlock()

	c.cObserved.Add(observed)
	c.cVotes.Add(int64(votes))
	c.cSkipped.Add(int64(len(recs)) - observed)
}

// ObservePath ingests one probe with an externally recovered hop sequence
// (a real traceroute, or a test fixture) instead of a record.
func (c *Collector) ObservePath(hops []topology.SwitchID, failed bool) {
	c.mu.Lock()
	c.vt.ObservePath(hops, failed)
	c.ranked = nil
	c.mu.Unlock()
	c.cObserved.Inc()
	if failed {
		c.cVotes.Inc()
	}
}

// Reset clears the vote state (window rotation).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.vt.Reset()
	c.ranked = nil
	c.mu.Unlock()
}

// Ranking is one immutable ranked root-cause snapshot.
type Ranking struct {
	// Observed and Failures count the ingested probes behind the ranking.
	Observed uint64 `json:"observed"`
	Failures uint64 `json:"failures"`
	// Candidates are suspect switches, worst first.
	Candidates []Candidate `json:"candidates"`
	// Links are suspect directed links, worst first (exact-path mode only).
	Links []LinkCandidate `json:"links,omitempty"`

	// By SwitchID, whatever limit capped the lists above: the switch's
	// 1-based place in the full greedy order (0: no vote mass) and its raw
	// votes per traversal.
	rank  []int32
	score []float64
}

// rank ranks the table with greedy explain-away (see AppendRankGreedy).
func (vt *VoteTable) rank() *Ranking {
	r := &Ranking{
		Observed:   vt.observed,
		Failures:   vt.failures,
		Candidates: vt.AppendRankGreedy(nil),
		Links:      vt.AppendRankLinks(nil),
		rank:       make([]int32, len(vt.votes)),
		score:      make([]float64, len(vt.votes)),
	}
	// Backwards, so a switch the overflow tail repeats keeps its first place.
	for i := len(r.Candidates) - 1; i >= 0; i-- {
		sw := r.Candidates[i].Switch
		r.rank[sw], r.score[sw] = int32(i+1), vt.Score(sw)
	}
	return r
}

// topHop returns the best-ranked switch among ps's candidate hops and its
// raw vote score, or -1 when the ranking touches none of them.
func (r *Ranking) topHop(ps *PathSet) (topology.SwitchID, float64) {
	best := topology.SwitchID(-1)
	for _, sw := range ps.hops {
		if int(sw) < len(r.rank) && r.rank[sw] > 0 && (best < 0 || r.rank[sw] < r.rank[best]) {
			best = sw
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, r.score[best]
}

// Snapshot returns the ranking of every probe ingested so far, ranking
// only if one arrived since the last call (a publish with no ingest since
// the last reuses the same immutable Ranking). limit > 0 caps both lists,
// not the index topHop reads.
func (c *Collector) Snapshot(limit int) *Ranking {
	c.mu.Lock()
	r := c.ranked
	if r == nil {
		r = c.vt.rank()
		c.ranked = r
		c.cRanked.Inc()
	}
	c.mu.Unlock()
	if limit <= 0 || (len(r.Candidates) <= limit && len(r.Links) <= limit) {
		return r
	}
	capped := *r
	nc, nl := min(limit, len(r.Candidates)), min(limit, len(r.Links))
	capped.Candidates, capped.Links = r.Candidates[:nc:nc], r.Links[:nl:nl]
	return &capped
}
