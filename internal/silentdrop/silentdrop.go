// Package silentdrop detects and localizes switch silent random packet
// drops (§5.2). A Spine dropping 1-2% of packets silently shows nothing in
// its own counters but inflates drop rates for tens of thousands of
// servers. Detection comes from the Pingmesh drop-rate series jumping an
// order of magnitude above baseline; localization combines Pingmesh (which
// tier? which affected pairs?) with TCP traceroute over the affected
// five-tuples: per-TTL loss estimation pins the first hop where loss
// appears. Mitigation isolates the switch from serving live traffic;
// hardware faults behind silent drops (fabric CRC errors, bit flips) are
// not fixed by reloads and end in RMA.
package silentdrop

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"

	"pingmesh/internal/analysis"
	"pingmesh/internal/diagnosis"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// Pair is one affected source-destination five-tuple, discovered from the
// retransmit signatures Pingmesh stored for a pair where they are elevated.
type Pair struct {
	Src, Dst         topology.ServerID
	SrcPort, DstPort uint16
}

// Suspect is one switch accused of silent drops.
type Suspect struct {
	Switch topology.SwitchID
	// Loss is the per-traversal loss estimate attributed to the switch.
	Loss float64
	// Pairs is how many traced five-tuples implicated the switch.
	Pairs int
}

// lossThreshold is the minimum per-hop loss increase that implicates a
// switch.
const lossThreshold = 0.005

// Localizer runs TCP-traceroute-style per-hop loss estimation against the
// network. In production the probes are real TCP traceroutes; here they
// run against the simulator, which reproduces the per-hop loss behaviour.
type Localizer struct {
	Net *netsim.Network
	// ProbesPerHop is how many trace probes each TTL gets (default 400 —
	// enough to resolve percent-level loss).
	ProbesPerHop int
	// Rand seeds the probing; required.
	Rand *rand.Rand
}

// Localize estimates per-hop loss for every affected pair and returns the
// implicated switches, worst first.
func (l *Localizer) Localize(pairs []Pair) []Suspect {
	probesPerHop := l.ProbesPerHop
	if probesPerHop <= 0 {
		probesPerHop = 400
	}
	rng := l.Rand
	if rng == nil {
		rng = rand.New(rand.NewPCG(0x51e27, 0xd309))
	}

	type acc struct {
		loss  float64
		pairs int
	}
	blame := map[topology.SwitchID]*acc{}
	for _, p := range pairs {
		hops, ok := l.Net.Path(p.Src, p.Dst, p.SrcPort, p.DstPort)
		if !ok {
			continue
		}
		spec := netsim.ProbeSpec{
			Src: p.Src, Dst: p.Dst,
			SrcPort: p.SrcPort, DstPort: p.DstPort,
			Proto: probe.TCP,
		}
		// Walk the path and blame the FIRST hop where loss appears. A
		// lossy switch also inflates the loss of every later TTL (probes
		// to later hops cross its fabric twice), so attributing every
		// increase would smear blame downstream; first-appearance is how
		// traceroute localization pinpoints the culprit (§5.2). If several
		// switches on one path leak, isolate-and-re-run finds them one at
		// a time. The sweep itself is the shared per-TTL estimator; the
		// early-stop visit keeps the rng draw sequence identical to the
		// pre-refactor loop.
		prevLoss := 0.0
		diagnosis.SweepTraceLoss(l.Net, spec, len(hops), probesPerHop, rng, func(ttl int, loss float64) bool {
			if delta := loss - prevLoss; delta >= lossThreshold {
				a := blame[hops[ttl-1]]
				if a == nil {
					a = &acc{}
					blame[hops[ttl-1]] = a
				}
				a.loss += delta
				a.pairs++
				return false
			}
			if loss > prevLoss {
				prevLoss = loss
			}
			return true
		})
	}

	// Rank through the shared scorer: implicating pairs are the vote mass
	// and the per-pair mean loss estimate the score — SortByVotes is the
	// §5.2 suspect order (pairs desc, loss desc, device asc).
	ranked := make([]diagnosis.Candidate, 0, len(blame))
	for sw, a := range blame {
		ranked = append(ranked, diagnosis.Candidate{
			Switch: sw,
			Score:  a.loss / float64(a.pairs),
			Votes:  float64(a.pairs),
		})
	}
	diagnosis.SortByVotes(ranked)
	out := make([]Suspect, 0, len(ranked))
	for _, rc := range ranked {
		out = append(out, Suspect{Switch: rc.Switch, Loss: rc.Score, Pairs: int(rc.Votes)})
	}
	return out
}

// AffectedPairsFromStats extracts the five-tuples worth tracerouting: those
// of the drop-signature records (analysis.DropSignature) among recs of the
// limit server pairs whose drop estimate is at least minRate, most elevated
// pair first; keys are Keyer.AppendServerPair keys. A traceroute must probe
// the five-tuple that dropped: ECMP hashes any other onto a path of its own.
func AffectedPairsFromStats(top *topology.Topology, dropRateByPair map[string]float64, recs []probe.Record, minRate float64, limit int) []Pair {
	type kv struct {
		src, dst         topology.ServerID
		srcAddr, dstAddr netip.Addr
		key              string
		rate             float64
	}
	var elevated []kv
	for k, r := range dropRateByPair {
		if r < minRate {
			continue
		}
		srcAddr, dstAddr, ok := analysis.SplitServerPair(k)
		if !ok {
			continue
		}
		src, ok1 := top.ServerByAddr(srcAddr)
		dst, ok2 := top.ServerByAddr(dstAddr)
		if !ok1 || !ok2 {
			continue // VIPs or stale topology entries
		}
		elevated = append(elevated, kv{src, dst, srcAddr, dstAddr, k, r})
	}
	sort.Slice(elevated, func(i, j int) bool {
		if elevated[i].rate != elevated[j].rate {
			return elevated[i].rate > elevated[j].rate
		}
		return elevated[i].key < elevated[j].key
	})
	if limit > 0 && len(elevated) > limit {
		elevated = elevated[:limit]
	}
	var out []Pair
	for _, e := range elevated {
		for i := range recs {
			r := &recs[i]
			if p := (Pair{e.src, e.dst, r.SrcPort, r.DstPort}); r.Src == e.srcAddr && r.Dst == e.dstAddr &&
				analysis.DropSignature(r.RTT) != 0 && !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}
