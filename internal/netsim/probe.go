package netsim

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// TCP SYN retransmission behaviour of the servers (§4.2): initial timeout
// 3 seconds, doubled per retry, two retries. A probe whose first SYN is
// dropped therefore measures ~3s RTT; two drops measure ~9s; three drops
// fail the connection after 21 seconds.
const (
	SYNTimeout    = 3 * time.Second
	SYNRetries    = 2
	ConnectFailAt = SYNTimeout + 2*SYNTimeout + 4*SYNTimeout // 21s
)

// synRetryOffsets[i] is how long the i-th SYN transmission waits before it
// is sent, relative to probe start.
var synRetryOffsets = [SYNRetries + 1]time.Duration{0, SYNTimeout, SYNTimeout + 2*SYNTimeout}

// Payload data packets are retransmitted by TCP with a minimum RTO of
// 300ms once the connection is established.
const (
	payloadRTO        = 300 * time.Millisecond
	payloadMaxRetries = 5
)

// Approximate serialization cost per byte per link at 10GbE (0.8ns/byte).
const perByteNanosPerLink = 0.8

const synPacketSize = 60 // TCP SYN on the wire, bytes

// ProbeSpec describes one probe to simulate.
type ProbeSpec struct {
	Src, Dst         topology.ServerID
	SrcPort, DstPort uint16
	Proto            probe.Proto
	QoS              probe.QoS
	// PayloadLen, when positive, performs a payload echo after connection
	// setup and reports PayloadRTT.
	PayloadLen int
	// Start is the probe send time on the experiment clock; it drives
	// time-varying load profiles.
	Start time.Time
}

// Result is the outcome of a simulated probe.
type Result struct {
	// RTT is the connection setup round trip, including any SYN retransmit
	// waits. Valid only when Err is empty.
	RTT time.Duration
	// PayloadRTT is the payload echo round trip (0 when no payload).
	PayloadRTT time.Duration
	// Attempts is the number of SYN transmissions used (1..3).
	Attempts int
	// Err is empty on success; otherwise "unreachable", "timeout" or
	// "payload-timeout".
	Err string
	// Elapsed is total wall time the probe consumed on the agent.
	Elapsed time.Duration
}

// Errors reported by simulated probes.
const (
	ErrUnreachable    = "unreachable"
	ErrTimeout        = "timeout"
	ErrPayloadTimeout = "payload-timeout"
)

// probeReference simulates one TCP/HTTP probe by re-deriving route, drop
// and latency state from the fault table on every call. It is the
// semantic reference for the plan-cached fast path in plan.go: the two
// must stay byte-identical, including the exact sequence of rng draws
// (see TestProbePlanDifferential). Keep every floating-point expression
// here in sync with its cached counterpart — the order of operations
// matters for bit-exactness.
func (n *Network) probeReference(spec ProbeSpec, rng *rand.Rand) Result {
	ft := n.faults.Load()
	ss, ds := n.top.Server(spec.Src), n.top.Server(spec.Dst)
	if ft.podsetDown[psKey{ss.DC, ss.Podset}] || ft.podsetDown[psKey{ds.DC, ds.Podset}] {
		return Result{Err: ErrUnreachable, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
	}
	r := n.resolve(ft, spec.Src, spec.Dst, spec.SrcPort, spec.DstPort)
	if !r.ok {
		return Result{Err: ErrUnreachable, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
	}

	// A black-hole match is deterministic: every retransmission of the
	// same five-tuple follows the same path and dies at the same TCAM
	// entry, which is exactly why affected pairs cannot talk at all (§5.1).
	if n.blackholed(ft, &r, ss.Addr, ds.Addr, spec.SrcPort, spec.DstPort) {
		return Result{Err: ErrTimeout, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
	}

	pDrop := n.roundTripDropProb(ft, &r, ss, ds, synPacketSize)
	res := Result{}
	for attempt := 0; attempt <= SYNRetries; attempt++ {
		p := pDrop
		if attempt > 0 {
			// Successive drops are correlated: congestion persists across
			// the retransmission (§4.2).
			p += n.profile(ss.DC).RetryDropBoost
		}
		res.Attempts = attempt + 1
		if rng.Float64() < p {
			continue
		}
		rtt := n.sampleRTT(ft, &r, ss, ds, spec, synPacketSize, rng)
		res.RTT = synRetryOffsets[attempt] + rtt
		res.Elapsed = res.RTT
		if spec.PayloadLen > 0 {
			n.payloadEcho(ft, &r, ss, ds, spec, rng, &res)
		}
		return res
	}
	return Result{Err: ErrTimeout, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
}

// payloadEcho simulates sending PayloadLen bytes and receiving the echo.
func (n *Network) payloadEcho(ft *faultTable, r *route, ss, ds *topology.Server, spec ProbeSpec, rng *rand.Rand, res *Result) {
	pktSize := spec.PayloadLen + 60
	pDrop := n.roundTripDropProb(ft, r, ss, ds, pktSize)
	var wait time.Duration
	for attempt := 0; attempt <= payloadMaxRetries; attempt++ {
		if rng.Float64() < pDrop {
			wait += payloadRTO << attempt
			continue
		}
		rtt := n.sampleRTT(ft, r, ss, ds, spec, pktSize, rng)
		prof := n.profile(ds.DC)
		app := prof.AppEchoBase + expDur(rng, prof.AppEchoNoise)
		if spec.Proto == probe.HTTP {
			app += prof.HTTPOverhead
		}
		res.PayloadRTT = wait + rtt + app
		res.Elapsed += res.PayloadRTT
		return
	}
	res.Err = ErrPayloadTimeout
	res.Elapsed += wait
}

// blackholed checks every hop's black-hole rules in both directions. The
// reverse direction sees swapped addresses and ports, so a TCAM entry can
// kill one direction of a pair while the reverse pair stays clean — the
// "A cannot talk to B but B can talk to A" asymmetry of §5.1.
func (n *Network) blackholed(ft *faultTable, r *route, srcAddr, dstAddr netip.Addr, sport, dport uint16) bool {
	for _, sw := range r.Hops() {
		for i := range ft.perSwitch[sw].blackholes {
			b := &ft.perSwitch[sw].blackholes[i]
			if b.matches(srcAddr, dstAddr, sport, dport) || b.matches(dstAddr, srcAddr, dport, sport) {
				return true
			}
		}
	}
	return false
}

// roundTripDropProb sums the (small) per-traversal random drop
// probabilities over the full round trip: two host stacks in each
// direction, every switch twice, the WAN twice if crossed.
func (n *Network) roundTripDropProb(ft *faultTable, r *route, ss, ds *topology.Server, pktSize int) float64 {
	sp, dp := n.profile(ss.DC), n.profile(ds.DC)
	p := 2 * (sp.HostDrop + dp.HostDrop)
	for _, sw := range r.Hops() {
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
		hop := tier + f.randomDrop + f.fcsPerByte*float64(pktSize)
		if d, ok := ft.tierDeg[tierKey{s.DC, s.Tier}]; ok {
			hop += d.DropProb
		}
		p += 2 * hop
	}
	if d, ok := ft.podsetDeg[psKey{ss.DC, ss.Podset}]; ok {
		p += 2 * d.DropProb
	}
	if d, ok := ft.podsetDeg[psKey{ds.DC, ds.Podset}]; ok && (ss.DC != ds.DC || ss.Podset != ds.Podset) {
		p += 2 * d.DropProb
	}
	if r.crossDC {
		p += 2 * n.cfg.InterDC.Drop
	}
	if p > 1 {
		p = 1
	}
	return p
}

// sampleRTT draws one network round-trip-time for a packet of pktSize
// bytes along route r.
func (n *Network) sampleRTT(ft *faultTable, r *route, ss, ds *topology.Server, spec ProbeSpec, pktSize int, rng *rand.Rand) time.Duration {
	sp, dp := n.profile(ss.DC), n.profile(ds.DC)
	loadS, loadD := sp.load(spec.Start), dp.load(spec.Start)
	qos := 1.0
	if spec.QoS == probe.QoSLow {
		qos = lowQoSQueueFactor
	}

	// End-host stacks: send+receive on each host per direction.
	d := 2*sp.HostBase + 2*dp.HostBase
	d += expDur(rng, sp.HostNoise) + expDur(rng, dp.HostNoise)

	// Switch traversals, twice each (forward and reverse).
	for _, sw := range r.Hops() {
		s := n.top.Switch(sw)
		prof := n.profile(s.DC)
		load := loadS
		if s.DC == ds.DC {
			load = loadD
		}
		d += 2 * prof.SwitchBase
		d += expDur(rng, scaleDur(prof.QueueMean, load*qos))
		d += expDur(rng, scaleDur(prof.QueueMean, load*qos))
		f := &ft.perSwitch[sw]
		if f.extraLatMean > 0 {
			d += expDur(rng, f.extraLatMean) + expDur(rng, f.extraLatMean)
		}
		if deg, ok := ft.tierDeg[tierKey{s.DC, s.Tier}]; ok && deg.ExtraLatencyMean > 0 {
			d += expDur(rng, deg.ExtraLatencyMean) + expDur(rng, deg.ExtraLatencyMean)
		}
	}

	// Congested-queue bursts: approximate "at least one of the traversals
	// hit a burst" with one draw per direction.
	hops := float64(r.n)
	if rng.Float64() < clamp01(hops*sp.BurstProb*loadS*qos) {
		d += expDur(rng, sp.BurstMean)
	}
	if rng.Float64() < clamp01(hops*dp.BurstProb*loadD*qos) {
		d += expDur(rng, dp.BurstMean)
	}
	// Deep-buffer congestion episodes (per probe).
	if rng.Float64() < clamp01((sp.BigBurstProb*loadS+dp.BigBurstProb*loadD)/2*qos) {
		d += expDur(rng, (sp.BigBurstMean+dp.BigBurstMean)/2)
	}
	// End-host scheduling stalls (per probe).
	if rng.Float64() < sp.StallProb {
		d += sp.StallMin + expDur(rng, sp.StallMean)
	} else if rng.Float64() < dp.StallProb {
		d += dp.StallMin + expDur(rng, dp.StallMean)
	}

	// Podset degradations (broadcast storms etc.).
	if deg, ok := ft.podsetDeg[psKey{ss.DC, ss.Podset}]; ok && deg.ExtraLatencyMean > 0 {
		d += expDur(rng, deg.ExtraLatencyMean) + expDur(rng, deg.ExtraLatencyMean)
	}
	if deg, ok := ft.podsetDeg[psKey{ds.DC, ds.Podset}]; ok && deg.ExtraLatencyMean > 0 && (ss.DC != ds.DC || ss.Podset != ds.Podset) {
		d += expDur(rng, deg.ExtraLatencyMean) + expDur(rng, deg.ExtraLatencyMean)
	}

	// WAN propagation and jitter.
	if r.crossDC {
		d += 2*n.cfg.InterDC.BaseOneWay + expDur(rng, n.cfg.InterDC.JitterMean) + expDur(rng, n.cfg.InterDC.JitterMean)
	}

	// Serialization of the packet and its ack across every link.
	d += time.Duration(perByteNanosPerLink * float64(pktSize) * float64(2*(r.n+1)))

	return d
}

func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func clamp01(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}
