package diagnosis

import (
	"pingmesh/internal/topology"
)

// PathSet is a reusable candidate path set: for each routing stage of the
// modeled route, the switches that could carry the packet (every ECMP
// member, since the hash choice is unknown without the five-tuple and
// fault state). Buffers are reused across fills so the ingest path stays
// allocation-free in steady state.
type PathSet struct {
	hops []topology.SwitchID // stage-major, flattened
	ends []int               // prefix end offsets, one per stage
}

// Reset empties the set, keeping capacity.
func (ps *PathSet) Reset() {
	ps.hops = ps.hops[:0]
	ps.ends = ps.ends[:0]
}

// Stages returns how many routing stages the set holds.
func (ps *PathSet) Stages() int { return len(ps.ends) }

// Stage returns the candidate switches of stage i.
func (ps *PathSet) Stage(i int) []topology.SwitchID {
	start := 0
	if i > 0 {
		start = ps.ends[i-1]
	}
	return ps.hops[start:ps.ends[i]]
}

// Hops returns the total number of candidate hops across all stages.
func (ps *PathSet) Hops() int { return len(ps.hops) }

func (ps *PathSet) addStage(members ...topology.SwitchID) {
	ps.hops = append(ps.hops, members...)
	ps.ends = append(ps.ends, len(ps.hops))
}

// CandidateHops fills ps with the candidate path set for (src, dst) using
// only the topology: the same route shape as the ECMP resolver — ToR up
// through leaves and spines and back down — but with every ECMP member
// kept. Returns false when either endpoint is unknown.
func CandidateHops(ps *PathSet, top *topology.Topology, src, dst topology.ServerID) bool {
	ps.Reset()
	if int(src) >= top.NumServers() || int(dst) >= top.NumServers() || src < 0 || dst < 0 {
		return false
	}
	ss, ds := top.Server(src), top.Server(dst)
	srcToR, dstToR := top.ToROf(src), top.ToROf(dst)
	ps.addStage(srcToR)
	if srcToR == dstToR {
		return true
	}
	ps.addStage(top.DCs[ss.DC].Podsets[ss.Podset].Leaves...)
	if ss.DC != ds.DC || ss.Podset != ds.Podset {
		ps.addStage(top.DCs[ss.DC].Spines...)
		if ss.DC != ds.DC {
			ps.addStage(top.DCs[ds.DC].Spines...)
		}
		ps.addStage(top.DCs[ds.DC].Podsets[ds.Podset].Leaves...)
	}
	ps.addStage(dstToR)
	return true
}
