package netsim

import (
	"net/netip"
	"slices"

	"pingmesh/internal/topology"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash5 hashes a five-tuple plus a per-ECMP-stage salt with FNV-1a. Every
// ECMP stage of the fabric uses the same header fields but a different
// salt, matching how successive switches hash independently. It is split
// into an address prefix and a port suffix so the probe plan cache can
// precompute the per-pair prefix once.
func hash5(src, dst netip.Addr, sport, dport uint16, salt uint64) uint64 {
	return hash5Ports(hash5Prefix(src, dst, salt), sport, dport)
}

// hash5Prefix folds the stage salt and both addresses; the result is
// constant per (pair, stage).
func hash5Prefix(src, dst netip.Addr, salt uint64) uint64 {
	h := uint64(fnvOffset) ^ (salt * fnvPrime)
	s4, d4 := src.As4(), dst.As4()
	for _, b := range s4 {
		h = (h ^ uint64(b)) * fnvPrime
	}
	for _, b := range d4 {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// hash5Ports folds the transport ports into a prefix from hash5Prefix.
func hash5Ports(h uint64, sport, dport uint16) uint64 {
	for _, b := range [...]byte{byte(sport >> 8), byte(sport), byte(dport >> 8), byte(dport)} {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// pickECMP selects one non-isolated member deterministically from the hash.
// It returns -1 if every member is isolated.
func pickECMP(members []topology.SwitchID, ft *faultTable, h uint64) topology.SwitchID {
	alive := 0
	for _, m := range members {
		if !ft.perSwitch[m].isolated {
			alive++
		}
	}
	if alive == 0 {
		return -1
	}
	k := int(h % uint64(alive))
	for _, m := range members {
		if ft.perSwitch[m].isolated {
			continue
		}
		if k == 0 {
			return m
		}
		k--
	}
	return -1 // unreachable
}

// route is a resolved probe path: the ordered switches a packet traverses
// from src to dst, plus whether it crosses the inter-DC WAN.
type route struct {
	hops    [6]topology.SwitchID
	n       int
	crossDC bool
	ok      bool
}

func (r *route) add(sw topology.SwitchID) {
	if sw < 0 {
		r.ok = false
		return
	}
	r.hops[r.n] = sw
	r.n++
}

// Hops returns the traversed switches in order.
func (r *route) Hops() []topology.SwitchID { return r.hops[:r.n] }

// resolve computes the ECMP path for a five-tuple against a fault table
// from scratch, hashing both addresses at every ECMP stage. It is the
// reference the probe plan's routes are pinned to (probeReference, and
// TestPlanRoutesMatchResolve); AppendPath and TraceProbe read the plan.
func (n *Network) resolve(ft *faultTable, src, dst topology.ServerID, sport, dport uint16) route {
	ss, ds := n.top.Server(src), n.top.Server(dst)
	sa, da := ss.Addr, ds.Addr
	r := route{ok: true}

	srcToR := n.top.ToROf(src)
	dstToR := n.top.ToROf(dst)
	if ft.perSwitch[srcToR].isolated || ft.perSwitch[dstToR].isolated {
		return route{}
	}
	// Same pod: one ToR hop.
	if srcToR == dstToR {
		r.add(srcToR)
		return r
	}
	r.add(srcToR)
	if ss.DC == ds.DC && ss.Podset == ds.Podset {
		// Same podset: up to a Leaf and back down.
		leaves := n.top.DCs[ss.DC].Podsets[ss.Podset].Leaves
		r.add(pickECMP(leaves, ft, hash5(sa, da, sport, dport, 1)))
		r.add(dstToR)
		return r
	}
	// Cross-podset: climb through the source podset's Leaf tier.
	r.add(pickECMP(n.top.DCs[ss.DC].Podsets[ss.Podset].Leaves, ft, hash5(sa, da, sport, dport, 1)))
	if ss.DC == ds.DC {
		r.add(pickECMP(n.top.DCs[ss.DC].Spines, ft, hash5(sa, da, sport, dport, 2)))
	} else {
		// Cross-DC: exit through a spine in each DC over the WAN.
		r.crossDC = true
		r.add(pickECMP(n.top.DCs[ss.DC].Spines, ft, hash5(sa, da, sport, dport, 2)))
		r.add(pickECMP(n.top.DCs[ds.DC].Spines, ft, hash5(sa, da, sport, dport, 3)))
	}
	r.add(pickECMP(n.top.DCs[ds.DC].Podsets[ds.Podset].Leaves, ft, hash5(sa, da, sport, dport, 4)))
	r.add(dstToR)
	return r
}

// Path returns the switches a probe with this five-tuple traverses, in
// order, and whether a route exists. It is the ground truth TCP traceroute
// recovers hop by hop (§5.2).
func (n *Network) Path(src, dst topology.ServerID, sport, dport uint16) ([]topology.SwitchID, bool) {
	return n.AppendPath(nil, src, dst, sport, dport)
}

// AppendPath is Path into a caller-owned buffer: it appends the hops to
// dst and returns the extended slice. It reads the pair's cached probe
// plan, so only the ports are hashed, and is allocation-free when dst has
// capacity (a route is at most 6 hops).
func (n *Network) AppendPath(dst []topology.SwitchID, src, dstID topology.ServerID, sport, dport uint16) ([]topology.SwitchID, bool) {
	dst, _, ok := n.AppendPaths(dst, src, dstID, [][2]uint16{{sport, dport}})
	return dst, ok
}

// AppendPaths is AppendPath for a run of probes between one pair, from one
// plan lookup: it appends the hops of each {sport, dport} in ports, in
// order, and returns the extended slice and the route length they all
// share. ok is false, with dst unchanged, when the pair has no route.
func (n *Network) AppendPaths(dst []topology.SwitchID, src, dstID topology.ServerID, ports [][2]uint16) ([]topology.SwitchID, int, bool) {
	pl := n.planFor(n.faults.Load(), src, dstID)
	if !pl.ok {
		return dst, 0, false
	}
	h, n0 := pl.nHops, len(dst)
	dst = slices.Grow(dst, len(ports)*h)[:n0+len(ports)*h]
	for i, p := range ports {
		pl.hops(dst[n0+i*h:n0+(i+1)*h], p[0], p[1])
	}
	return dst, h, true
}
