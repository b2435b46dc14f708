package diagnosis

import (
	"cmp"
	"math/rand/v2"
	"net/netip"
	"slices"

	"pingmesh/internal/analysis"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// pinThreshold is the per-traversal loss estimate that makes a hop lossy:
// two thirds of §5.2's 1.5 % spine drop, and about four times the noise
// of a 600-probe estimate on a clean hop, so noise that clears it once
// does not clear it again in the confirmation sweep.
const pinThreshold = 0.01

// Tuple is one five-tuple to trace and the hops it crosses, in order.
type Tuple struct {
	FiveTuple
	Hops []topology.SwitchID
}

// Pin is one switch PinLoss blames.
type Pin struct {
	Switch topology.SwitchID
	// Loss is the per-traversal loss the confirmation sweep measured.
	Loss float64
	// Tuples is how many traced tuples crossed the switch up to their
	// first lossy hop.
	Tuples int
}

// PinLoss is §5.2's localiser: TCP-traceroute the five-tuples that
// dropped and blame the first hop where loss appears. Each tuple's hops
// are swept with EstimateHopLoss at probesPerHop probes per TTL, and the
// tuple tallies its hops up to and including the first whose estimate
// reaches pinThreshold — a lossy hop inflates every later TTL, so its
// downstream hops are not evidence. Switches whose mean tally reaches
// the threshold are ranked by loss mass (the sum over tuples: a switch
// many tuples cross outranks one a single noisy tuple saw), ties broken
// by ID, and the top three are re-swept at 5× the probes on the tuple
// where each looked worst. A single estimate has binomial noise of the
// order of a real silent drop; noise does not repeat, real loss does. A
// suspect is confirmed when its fresh estimate reaches the threshold and
// no earlier hop of that tuple shows loss: an eighth of the threshold,
// two probes in a thousand, which a hop upstream of all loss almost never
// loses. The estimator splits a lossy hop's loss noisily between it and
// the next hop, so a looser check (half the threshold) lets the hop just
// after a 1 % spine through about once in a hundred pins. Pins come back
// in rank order; none on a clean fabric.
func PinLoss(tr TraceProber, tuples []Tuple, probesPerHop int, rng *rand.Rand) []Pin {
	type tally struct {
		sum       float64
		n         int
		peak      float64
		tuple, at int // where the switch looked worst: tuple index, hop index
	}
	tallies := map[topology.SwitchID]*tally{}
	for i, tu := range tuples {
		for k, p := range EstimateHopLoss(tr, tu.FiveTuple, len(tu.Hops), probesPerHop, rng) {
			t := tallies[tu.Hops[k]]
			if t == nil {
				t = &tally{peak: -1}
				tallies[tu.Hops[k]] = t
			}
			t.sum += p
			t.n++
			if p > t.peak {
				t.peak, t.tuple, t.at = p, i, k
			}
			if p >= pinThreshold {
				break
			}
		}
	}

	var suspects []topology.SwitchID
	for sw, t := range tallies {
		if t.sum/float64(t.n) >= pinThreshold {
			suspects = append(suspects, sw)
		}
	}
	slices.SortFunc(suspects, func(a, b topology.SwitchID) int {
		return cmp.Or(cmp.Compare(tallies[b].sum, tallies[a].sum), cmp.Compare(a, b))
	})
	var pins []Pin
	for _, sw := range suspects[:min(len(suspects), 3)] {
		t := tallies[sw]
		est := EstimateHopLoss(tr, tuples[t.tuple].FiveTuple, t.at+1, 5*probesPerHop, rng)
		if est[t.at] < pinThreshold || slices.ContainsFunc(est[:t.at], func(p float64) bool { return p >= pinThreshold/8 }) {
			continue
		}
		pins = append(pins, Pin{Switch: sw, Loss: est[t.at], Tuples: t.n})
	}
	return pins
}

// AffectedPairsFromStats selects the five-tuples worth tracerouting: those
// of the drop-signature records (analysis.DropSignature) among recs of the
// limit server pairs whose drop estimate is at least minRate, most
// elevated pair first, each with the hops paths resolves for it (a pair
// with no route is skipped); keys are Keyer.AppendServerPair keys. A
// traceroute must probe the five-tuple that dropped: ECMP hashes any
// other onto a path of its own.
func AffectedPairsFromStats(top *topology.Topology, paths PathResolver, dropRateByPair map[string]float64, recs []probe.Record, minRate float64, limit int) []Tuple {
	type pair struct {
		src, dst         topology.ServerID
		srcAddr, dstAddr netip.Addr
		key              string
		rate             float64
	}
	var elevated []pair
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
		elevated = append(elevated, pair{src, dst, srcAddr, dstAddr, k, r})
	}
	slices.SortFunc(elevated, func(a, b pair) int {
		return cmp.Or(cmp.Compare(b.rate, a.rate), cmp.Compare(a.key, b.key))
	})
	if limit > 0 && len(elevated) > limit {
		elevated = elevated[:limit]
	}
	var out []Tuple
	var ports [][2]uint16
	for _, e := range elevated {
		ports = ports[:0]
		for i := range recs {
			r := &recs[i]
			if p := [2]uint16{r.SrcPort, r.DstPort}; r.Src == e.srcAddr && r.Dst == e.dstAddr &&
				analysis.DropSignature(r.RTT) != 0 && !slices.Contains(ports, p) {
				ports = append(ports, p)
			}
		}
		if len(ports) == 0 {
			continue
		}
		hops, h, ok := paths.AppendPaths(nil, e.src, e.dst, ports)
		if !ok {
			continue
		}
		for i, p := range ports {
			out = append(out, Tuple{
				FiveTuple: FiveTuple{Src: e.src, Dst: e.dst, SrcPort: p[0], DstPort: p[1]},
				Hops:      hops[i*h : (i+1)*h : (i+1)*h],
			})
		}
	}
	return out
}
