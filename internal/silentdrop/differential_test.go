package silentdrop

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// localizeReference is the pre-refactor Localize, copied verbatim from
// before the TTL sweep moved into internal/diagnosis. The rng draw
// sequence and suspect order must be identical: same seed, same Network,
// byte-identical suspects.
func localizeReference(l *Localizer, pairs []Pair) []Suspect {
	probesPerHop := l.ProbesPerHop
	if probesPerHop <= 0 {
		probesPerHop = 400
	}
	threshold := lossThreshold
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
		prevLoss := 0.0
		for ttl := 1; ttl <= len(hops); ttl++ {
			lost := 0
			for i := 0; i < probesPerHop; i++ {
				if !l.Net.TraceProbe(spec, ttl, rng).OK {
					lost++
				}
			}
			loss := float64(lost) / float64(probesPerHop)
			if delta := loss - prevLoss; delta >= threshold {
				a := blame[hops[ttl-1]]
				if a == nil {
					a = &acc{}
					blame[hops[ttl-1]] = a
				}
				a.loss += delta
				a.pairs++
				break
			}
			if loss > prevLoss {
				prevLoss = loss
			}
		}
	}

	out := make([]Suspect, 0, len(blame))
	for sw, a := range blame {
		out = append(out, Suspect{Switch: sw, Loss: a.loss / float64(a.pairs), Pairs: a.pairs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pairs != out[j].Pairs {
			return out[i].Pairs > out[j].Pairs
		}
		if out[i].Loss != out[j].Loss {
			return out[i].Loss > out[j].Loss
		}
		return out[i].Switch < out[j].Switch
	})
	return out
}

// TestLocalizeMatchesReference runs Localize and the verbatim pre-refactor
// copy with identical seeds against the same faulty fabric and requires
// byte-identical suspect lists.
func TestLocalizeMatchesReference(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0x51d0, uint64(trial)))
			top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{{
				Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 3,
				LeavesPerPodset: 2, Spines: 3,
			}}})
			if err != nil {
				t.Fatal(err)
			}
			net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC1Profile()}})
			if err != nil {
				t.Fatal(err)
			}
			// 1-2 silently dropping switches per trial.
			switches := top.Switches()
			for f := 0; f < 1+int(rng.IntN(2)); f++ {
				sw := switches[rng.IntN(len(switches))].ID
				net.SetRandomDrop(sw, 0.01+0.03*rng.Float64(), true)
			}

			servers := top.Servers()
			var pairs []Pair
			for k := 0; k < 12; k++ {
				src := servers[rng.IntN(len(servers))].ID
				dst := servers[rng.IntN(len(servers))].ID
				if src == dst {
					continue
				}
				pairs = append(pairs, Pair{
					Src: src, Dst: dst,
					SrcPort: uint16(33000 + k), DstPort: 8765,
				})
			}

			mk := func() *Localizer {
				return &Localizer{
					Net:          net,
					ProbesPerHop: 200,
					Rand:         rand.New(rand.NewPCG(0xfeed, uint64(trial))),
				}
			}
			got := mk().Localize(pairs)
			want := localizeReference(mk(), pairs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Localize diverged from pre-refactor reference:\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}
