package diagnosis

import (
	"maps"
	"slices"
	"testing"

	"pingmesh/internal/netsim"
	"pingmesh/internal/topology"
)

// detour is a resolver that moves one pair's paths off the link model: its
// first hop becomes a ToR of another DC, a link the fabric does not have.
type detour struct {
	net      *netsim.Network
	src, dst topology.ServerID
	via      topology.SwitchID
}

func (d *detour) AppendPaths(dst []topology.SwitchID, src, dstID topology.ServerID, ports [][2]uint16) ([]topology.SwitchID, int, bool) {
	start := len(dst)
	dst, h, ok := d.net.AppendPaths(dst, src, dstID, ports)
	if ok {
		for i := start; i < len(dst); i += h {
			d.rewrite(src, dstID, dst[i:i+h])
		}
	}
	return dst, h, ok
}

func (d *detour) rewrite(src, dst topology.ServerID, hops []topology.SwitchID) {
	if src == d.src && dst == d.dst {
		hops[0] = d.via
	}
}

// TestObserveBatchBitIdentical: ObserveBatch — a run of one pair resolved
// at once, failures voted one by one, successes summed into counts —
// leaves the table exactly where VoteTable.ObservePath-ing every probe in
// record order, over its own AppendPath, does. Equal means ==, not within
// a tolerance: per-switch votes and traversals, dense and map link
// tallies, the failure log, the probe counts and the full ranking. It runs
// on the random-pair episode (every run one record long) and on a
// run-ordered episode over a fabric with an isolated ECMP member and a
// replaced switch, where one pair's paths leave the link model and its
// successes take the per-probe fallback.
func TestObserveBatchBitIdentical(t *testing.T) {
	faults := func(n *netsim.Network) {
		top := n.Topology()
		n.IsolateSwitch(top.DCs[0].Podsets[1].Leaves[0])
		n.SetRandomDrop(top.DCs[0].Spines[2], 0.3, true)
		n.ReplaceSwitch(top.DCs[0].Spines[2])
	}
	for _, c := range []struct {
		name string
		ep   *episode
	}{
		{"random-pair", buildEpisode(t, 6, 400)},
		{"run-ordered", buildRunEpisode(t, 6, 480, 16, faults)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ep := c.ep
			// Detour a DC1 pair of at least three hops, with failures and
			// successes, through a DC2 ToR.
			d := &detour{net: ep.net, src: -1, via: ep.top.ToRs(1)[0]}
			if c.name == "run-ordered" {
				for _, b := range ep.batches {
					for i := range b {
						src, _ := ep.top.ServerByAddr(b[i].Src)
						dst, _ := ep.top.ServerByAddr(b[i].Dst)
						if hops, _ := ep.net.Path(src, dst, b[i].SrcPort, b[i].DstPort); len(hops) >= 3 && ep.top.Server(src).DC == 0 && !b[i].Success() {
							d.src, d.dst = src, dst
							break
						}
					}
					if d.src >= 0 {
						break
					}
				}
			}
			col := NewCollector(CollectorConfig{Top: ep.top, Paths: d})
			ref := NewCollector(CollectorConfig{Top: ep.top})
			var buf []topology.SwitchID
			for _, b := range ep.batches {
				col.ObserveBatch(b)
				for i := range b {
					src, _ := ep.top.ServerByAddr(b[i].Src)
					dst, _ := ep.top.ServerByAddr(b[i].Dst)
					buf, _ = ep.net.AppendPath(buf[:0], src, dst, b[i].SrcPort, b[i].DstPort)
					d.rewrite(src, dst, buf)
					ref.vt.ObservePath(buf, !b[i].Success())
				}
			}
			got, want := col.vt, ref.vt
			if got.observed != ep.probes || got.observed != want.observed || got.failures != want.failures {
				t.Fatalf("observed/failures %d/%d, want %d/%d (%d probes)", got.observed, got.failures, want.observed, want.failures, ep.probes)
			}
			if !slices.Equal(got.votes, want.votes) || !slices.Equal(got.traversals, want.traversals) {
				t.Fatalf("switch tallies differ:\nvotes %v\nwant  %v\ntraversals %v\nwant       %v", got.votes, want.votes, got.traversals, want.traversals)
			}
			if !slices.Equal(got.dense, want.dense) {
				t.Fatal("dense link tallies differ")
			}
			if !maps.EqualFunc(got.links, want.links, func(a, b *linkTally) bool { return *a == *b }) {
				t.Fatalf("map link tallies differ: %d vs %d links", len(got.links), len(want.links))
			}
			if (d.src >= 0) != (len(got.links) > 0) {
				t.Fatalf("detoured pair %v: %d off-model links tallied", d.src >= 0, len(got.links))
			}
			if !slices.Equal(got.failHops, want.failHops) || !slices.Equal(got.failEnds, want.failEnds) {
				t.Fatal("failure logs differ")
			}
			gr, wr := col.Snapshot(0), want.rank()
			if gr.Observed != wr.Observed || gr.Failures != wr.Failures || len(gr.Candidates) < 3 ||
				!slices.Equal(gr.Candidates, wr.Candidates) || !slices.Equal(gr.Links, wr.Links) ||
				!slices.Equal(gr.rank, wr.rank) || !slices.Equal(gr.score, wr.score) {
				t.Fatalf("rankings differ:\n%+v\nwant %+v", gr.Candidates, wr.Candidates)
			}
		})
	}
}
