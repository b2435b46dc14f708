package diagnosis

import (
	"math/rand/v2"
	"testing"

	"pingmesh/internal/topology"
)

// fakeProber mirrors the netsim trace loss model: a TTL-k answer crosses
// hops 1..k-1 twice (probe out, answer back) and the answering hop once,
// with additive per-traversal loss — the model under which the naive
// successive-difference estimator mis-attributes return-path loss.
type fakeProber struct {
	loss []float64 // per-hop per-traversal loss
	host float64   // source host loss, both directions
}

func (f *fakeProber) TraceProbe(src, dst topology.ServerID, sport, dport uint16, ttl int, rng *rand.Rand) (topology.SwitchID, bool) {
	if ttl < 1 {
		return -1, false
	}
	reach := ttl
	if reach > len(f.loss) {
		reach = len(f.loss)
	}
	p := 2 * f.host
	for i := 0; i < reach; i++ {
		if i == reach-1 && ttl <= len(f.loss) {
			p += f.loss[i]
		} else {
			p += 2 * f.loss[i]
		}
	}
	if p > 1 {
		p = 1
	}
	if rng.Float64() < p {
		return -1, false
	}
	if ttl > len(f.loss) {
		return -1, true
	}
	return topology.SwitchID(ttl - 1), true
}

// TestEstimateHopLossReturnPathBias is the regression test for the
// return-path bias: hop 3 (index 2) of a 5-hop path loses 5% per
// traversal. The naive delta estimator attributes ~p to hop 4 as well
// (the TTL-4 answer crosses lossy hop 3 twice, TTL-3's only once plus
// once back — the deltas double-count). The survival-ratio estimator must
// put the loss on hop 3 and leave hop 4 near zero.
func TestEstimateHopLossReturnPathBias(t *testing.T) {
	const p = 0.05
	f := &fakeProber{loss: []float64{0, 0, p, 0, 0}, host: 1e-5}
	rng := rand.New(rand.NewPCG(7, 9))
	const probes = 60000
	est := EstimateHopLoss(f, FiveTuple{}, len(f.loss), probes, rng)

	// Reconstruct the naive estimator from a fresh sweep for comparison.
	naive := make([]float64, len(f.loss))
	prev := 0.0
	rng2 := rand.New(rand.NewPCG(7, 9))
	for k := range naive {
		lost := 0
		for i := 0; i < probes; i++ {
			if _, ok := f.TraceProbe(0, 0, 0, 0, k+1, rng2); !ok {
				lost++
			}
		}
		loss := float64(lost) / probes
		naive[k], prev = loss-prev, loss
	}

	if naive[3] < 0.03 {
		t.Fatalf("naive[3] = %.4f; expected the bias this test guards against (~%.2f)", naive[3], p)
	}
	if est[2] < p-0.015 || est[2] > p+0.015 {
		t.Fatalf("est[2] = %.4f, want ~%.2f", est[2], p)
	}
	if est[3] > 0.02 {
		t.Fatalf("est[3] = %.4f, want < 0.02 (return-path loss mis-attributed)", est[3])
	}
}

func TestEstimateHopLossTotalBlackout(t *testing.T) {
	// Hop 2 answers nothing at all: est[1] = 1, later hops unobservable (0).
	f := &fakeProber{loss: []float64{0, 1, 0}}
	rng := rand.New(rand.NewPCG(1, 1))
	est := EstimateHopLoss(f, FiveTuple{}, 3, 200, rng)
	if est[0] > 0.05 {
		t.Fatalf("est[0] = %v, want ~0", est[0])
	}
	if est[1] != 1 {
		t.Fatalf("est[1] = %v, want 1", est[1])
	}
	if est[2] != 0 {
		t.Fatalf("est[2] = %v, want 0 (unobservable)", est[2])
	}
}

func TestTracePathRecovery(t *testing.T) {
	f := &fakeProber{loss: []float64{0, 0, 0}}
	rng := rand.New(rand.NewPCG(3, 3))
	hops := TracePath(f, FiveTuple{}, rng)
	if len(hops) != 3 || hops[0] != 0 || hops[1] != 1 || hops[2] != 2 {
		t.Fatalf("recovered path = %v, want [0 1 2]", hops)
	}
}

func TestTracePathStopsAtBlackout(t *testing.T) {
	f := &fakeProber{loss: []float64{0, 0, 1, 0}}
	rng := rand.New(rand.NewPCG(4, 4))
	hops := TracePath(f, FiveTuple{}, rng)
	if len(hops) != 2 {
		t.Fatalf("recovered path = %v, want the 2 hops before the hole", hops)
	}
}

func BenchmarkDiagnoseSweep(b *testing.B) {
	f := &fakeProber{loss: []float64{0, 0, 0.05, 0, 0, 0}}
	rng := rand.New(rand.NewPCG(5, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateHopLoss(f, FiveTuple{}, 6, 200, rng)
	}
}
