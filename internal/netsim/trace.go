package netsim

import (
	"math/rand/v2"

	"pingmesh/internal/topology"
)

// TraceProbe simulates a TCP-traceroute probe: a packet with the given
// five-tuple and TTL travels up to ttl hops; the hop at which TTL expires
// answers, and the answer travels back through the same hops. Silent random
// drops affect trace probes exactly like data packets, which is what lets
// repeated traces localize a lossy switch (§5.2).
//
// ttl counts switch hops starting at 1. hop is the switch that answered,
// or -1 when a ttl beyond the path length reached the destination host;
// ok is false when the probe or its answer was dropped along the way.
func (n *Network) TraceProbe(src, dst topology.ServerID, sport, dport uint16, ttl int, rng *rand.Rand) (hop topology.SwitchID, ok bool) {
	ft := n.faults.Load()
	pl := n.planFor(ft, src, dst)
	if pl.srcDown || pl.dstDown || !pl.ok || ttl < 1 {
		return -1, false
	}
	var buf [6]topology.SwitchID
	hops := buf[:pl.nHops]
	pl.hops(hops, sport, dport)
	ss, ds := n.top.Server(src), n.top.Server(dst)
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
		drop := tier + f.fcsPerByte*synPacketSize
		if d, ok := ft.tierDeg[tierKey{s.DC, s.Tier}]; ok {
			drop += d.DropProb
		}
		// A switch's silent random drop hits packets it forwards. The
		// answering switch itself only forwards the probe into its CPU, so
		// its fabric loss applies once rather than twice.
		if i == reach-1 && ttl <= len(hops) {
			drop += f.randomDrop
			p += drop
		} else {
			drop += f.randomDrop
			p += 2 * drop
		}
		for bi := range f.blackholes {
			b := &f.blackholes[bi]
			if b.matches(ss.Addr, ds.Addr, sport, dport) ||
				b.matches(ds.Addr, ss.Addr, dport, sport) {
				return -1, false
			}
		}
	}
	if p > 1 {
		p = 1
	}
	if rng.Float64() < p {
		return -1, false
	}
	if ttl > len(hops) {
		return -1, true // destination host answered
	}
	return hops[ttl-1], true
}
