package netsim

import (
	"math/rand/v2"

	"pingmesh/internal/topology"
)

// TraceResult is the outcome of one TTL-limited trace probe.
type TraceResult struct {
	// Hop is the switch that answered (the TTL'th hop of the path), or -1
	// if the destination host answered because TTL exceeded the path
	// length.
	Hop topology.SwitchID
	// OK reports whether an answer came back at all; false means the probe
	// or its reply was dropped along the way.
	OK bool
}

// TraceProbe simulates a TCP-traceroute probe: a packet with the given
// five-tuple and TTL travels up to ttl hops; the hop at which TTL expires
// answers, and the answer travels back through the same hops. Silent random
// drops affect trace probes exactly like data packets, which is what lets
// repeated traces localize a lossy switch (§5.2).
//
// ttl counts switch hops starting at 1. A ttl beyond the path length
// reaches the destination host.
func (n *Network) TraceProbe(spec ProbeSpec, ttl int, rng *rand.Rand) TraceResult {
	ft := n.faults.Load()
	pl := n.planFor(ft, spec.Src, spec.Dst)
	if pl.srcDown || pl.dstDown || !pl.ok || ttl < 1 {
		return TraceResult{Hop: -1}
	}
	var buf [6]topology.SwitchID
	hops := buf[:pl.nHops]
	pl.hops(hops, spec.SrcPort, spec.DstPort)
	ss, ds := n.top.Server(spec.Src), n.top.Server(spec.Dst)
	reach := ttl
	if reach > len(hops) {
		reach = len(hops)
	}

	// The probe must survive the forward trip through the hops before the
	// answering one, and the answer must survive the same hops backwards.
	// Each traversal applies the hop's random loss; black-holes apply too.
	p := 2 * n.profile(ss.DC).HostDrop // src host, both directions
	if ttl > len(hops) {
		p += 2 * n.profile(ds.DC).HostDrop // dst host answers
	}
	for i := 0; i < reach; i++ {
		sw := hops[i]
		s := n.top.Switch(sw)
		prof := n.profile(s.DC)
		var tier float64
		switch s.Tier {
		case topology.TierToR:
			tier = prof.ToRDrop
		case topology.TierLeaf:
			tier = prof.LeafDrop
		case topology.TierSpine:
			tier = prof.SpineDrop
		}
		f := &ft.perSwitch[sw]
		hop := tier + f.fcsPerByte*synPacketSize
		if d, ok := ft.tierDeg[tierKey{s.DC, s.Tier}]; ok {
			hop += d.DropProb
		}
		// A switch's silent random drop hits packets it forwards. The
		// answering switch itself only forwards the probe into its CPU, so
		// its fabric loss applies once rather than twice.
		if i == reach-1 && ttl <= len(hops) {
			hop += f.randomDrop
			p += hop
		} else {
			hop += f.randomDrop
			p += 2 * hop
		}
		for bi := range f.blackholes {
			b := &f.blackholes[bi]
			if b.matches(ss.Addr, ds.Addr, spec.SrcPort, spec.DstPort) ||
				b.matches(ds.Addr, ss.Addr, spec.DstPort, spec.SrcPort) {
				return TraceResult{Hop: -1}
			}
		}
	}
	if p > 1 {
		p = 1
	}
	if rng.Float64() < p {
		return TraceResult{Hop: -1}
	}
	if ttl > len(hops) {
		return TraceResult{Hop: -1, OK: true} // destination host answered
	}
	return TraceResult{Hop: hops[ttl-1], OK: true}
}
