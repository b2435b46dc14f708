package diagnosis

import (
	"math/rand/v2"

	"pingmesh/internal/topology"
)

// TracePath's sweep limits: no modeled route is longer than 6 switch hops,
// and a TTL that stays silent for 3 probes is taken as dark.
const (
	traceMaxHops  = 8
	traceAttempts = 3
)

// FiveTuple is the flow a trace probe rides. Traces are TCP (§5.2), so the
// protocol is implied; ECMP hashes the ports onto one path.
type FiveTuple struct {
	Src, Dst         topology.ServerID
	SrcPort, DstPort uint16
}

// TraceProber sends TTL-limited trace probes (§5.2): one probe of the
// five-tuple (src, dst, sport, dport) that expires after ttl switch hops.
// hop is the switch that answered, or -1 when the destination host did;
// ok is false when the probe or its answer was lost. A simulator or a real
// TCP traceroute can implement it; rng drives a simulator's loss draws,
// and a real prober ignores it.
type TraceProber interface {
	TraceProbe(src, dst topology.ServerID, sport, dport uint16, ttl int, rng *rand.Rand) (hop topology.SwitchID, ok bool)
}

// EstimateHopLoss converts a full TTL sweep into per-hop per-traversal
// loss estimates (est[k-1] is hop k's estimate).
//
// The naive estimator — successive differences of the round-trip loss
// series — is biased by return-path drops: a TTL-k answer crosses hops
// 1..k-1 twice (probe out, answer back) but the answering hop only once,
// so a lossy hop j adds its loss to every later TTL a second time and the
// difference re-attributes ~p_j to hop j+1. Survival ratios cancel the
// return crossing exactly: with R(k) the TTL-k answer rate and Q(k) the
// one-way survival through hops 1..k,
//
//	R(k) = (1-h)² · Q(k-1) · Q(k)
//	R(k)/R(k-1) = (1-p_k)(1-p_{k-1})
//	⇒ 1 - p̂_k = R(k) / (R(k-1) · (1 - p̂_{k-1}))
//
// which is exact for any number of lossy hops on the path — the property
// multi-fault vote ranking relies on. Hop 1 cannot be separated from the
// source host's own drop term, so est[0] absorbs it (it is ~1e-5 under
// the paper's profiles). Estimates are clamped to [0, 1]; once a TTL gets
// no answers at all the remaining hops are unobservable and report 0.
func EstimateHopLoss(tr TraceProber, ft FiveTuple, hops, probesPerHop int, rng *rand.Rand) []float64 {
	est := make([]float64, hops)
	prevRate := 1.0 // R(k-1); R(0) ≡ 1 folds the host term into hop 1
	prevEst := 0.0  // p̂_{k-1}
	for k := range est {
		lost := 0
		for i := 0; i < probesPerHop; i++ {
			if _, ok := tr.TraceProbe(ft.Src, ft.Dst, ft.SrcPort, ft.DstPort, k+1, rng); !ok {
				lost++
			}
		}
		rate := 1 - float64(lost)/float64(probesPerHop)
		if rate <= 0 {
			// Nothing answered: everything from here on is dark. Attribute
			// total loss to this hop and stop — downstream hops stay 0.
			est[k] = 1
			break
		}
		// Clamp: a TTL answering better than its parent is sampling noise.
		p := min(max(1-rate/(prevRate*(1-prevEst)), 0), 1)
		est[k] = p
		prevRate, prevEst = rate, p
	}
	return est
}

// TracePath recovers a five-tuple's hop sequence by TTL sweep: each TTL is
// probed until a hop answers (up to traceAttempts tries), mirroring how a
// real deployment reconstructs paths without a fabric model. The sweep
// stops at the first TTL where the destination host answers or nothing
// answers at all (a black-holed tuple yields the hops before the hole).
func TracePath(tr TraceProber, ft FiveTuple, rng *rand.Rand) []topology.SwitchID {
	var hops []topology.SwitchID
	for ttl := 1; ttl <= traceMaxHops; ttl++ {
		answered := false
		for i := 0; i < traceAttempts; i++ {
			hop, ok := tr.TraceProbe(ft.Src, ft.Dst, ft.SrcPort, ft.DstPort, ttl, rng)
			if !ok {
				continue
			}
			if hop < 0 {
				return hops // destination host answered: path complete
			}
			hops = append(hops, hop)
			answered = true
			break
		}
		if !answered {
			return hops
		}
	}
	return hops
}
