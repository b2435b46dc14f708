package netsim

import (
	"math/rand/v2"
	"net/netip"
	"sync"
	"time"

	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// This file implements the probe-plan cache: the simulation hot path.
//
// Every quantity Probe derives from the topology and the fault table is
// invariant per (src, dst) pair for the lifetime of one fault-table
// snapshot — the ECMP candidate sets (isolation-filtered), the per-hop
// profile pointers and tier drop rates, the tier/podset degradation
// terms, the deterministic RTT base, and (when no per-switch loss faults
// are installed) the whole round-trip drop probability. A pairPlan
// precomputes all of it once; the per-probe work left is the five-tuple
// port hash, the cached member pick, and the same sequence of rng draws
// the reference path performs.
//
// Invalidation is by fault-table epoch: plans embed the *faultTable they
// were built from, and every lookup compares it against the current
// n.faults.Load() pointer. Fault injection publishes a new table, so all
// cached plans go stale at once and rebuild lazily — no explicit
// invalidation hooks, no locks on the probe path.
//
// Bit-exactness contract: a plan may precompute a floating-point value
// only by executing the identical expression (same operations, same
// association order) the reference path executes, and may skip an
// addition only when the skipped term is exactly +0. Integer Duration
// sums may be reassociated freely. The differential test in plan_test.go
// pins Probe to probeReference byte for byte, rng draw for rng draw.

// planStage is one hop of the precomputed path: either a fixed switch
// (the pair's ToRs) or an ECMP stage with its isolation-filtered members.
type planStage struct {
	// faults points at the alive members' fault entries inside the plan's
	// fault table, in pickECMP iteration order. len >= 1.
	faults []*switchFault
	// hashPrefix is the FNV-1a state after salt and addresses; only the
	// four port bytes remain to be folded per probe. Unused when the
	// stage has a single alive member (the pick is then unconditional,
	// exactly like pickECMP with alive == 1).
	hashPrefix uint64
	// mask is len(faults)-1 when that count is a power of two (the usual
	// fabric widths): h&mask == h%len then, without the 64-bit division.
	// 0 means "use %" (and single-member stages never hash at all).
	mask uint64
	// prof is the DC profile every member shares (one stage never spans
	// DCs or tiers).
	prof *Profile
	// useDstLoad mirrors the reference path's "s.DC == ds.DC" load pick.
	useDstLoad bool
	// tierDrop is the per-traversal drop rate of the members' tier.
	tierDrop float64
	// tierDegDrop and tierDegLat are the tier degradation terms, zero
	// when no degradation is installed (adding +0 is exact).
	tierDegDrop float64
	tierDegLat  time.Duration
}

// pairPlan caches everything Probe can know about a (src, dst) pair
// before seeing the five-tuple ports and the rng.
type pairPlan struct {
	ft *faultTable // epoch key: stale when != n.faults.Load()

	srcDown, dstDown bool // podset power state at plan build
	ok               bool // a route exists for every five-tuple
	crossDC          bool

	nHops  int
	stages [6]planStage
	hopsF  float64 // float64(nHops), for the burst probability products
	linksF float64 // float64(2*(nHops+1)), for the serialization term

	// allFixed is true when every stage has exactly one alive member (the
	// whole intra-pod class, plus degenerate fabrics): the member choice
	// is then port-independent and fixedChosen is the resolved path.
	allFixed    bool
	fixedChosen [6]*switchFault

	sp, dp           *Profile
	srcAddr, dstAddr netip.Addr

	// anyBH is true when any alive candidate on any stage carries
	// black-hole rules; when false the per-hop rule scan is skipped.
	anyBH bool

	// dropConst is true when no alive candidate has per-switch loss
	// (randomDrop / fcsPerByte); the round-trip drop probability is then
	// member- and packet-size-independent and fully precomputed.
	dropConst bool
	pDropSyn  float64

	// Precomputed pieces of the reference float expressions. Each is the
	// result of the exact expression the reference path evaluates.
	hostDrop2   float64 // 2 * (sp.HostDrop + dp.HostDrop)
	degSrcDrop2 float64 // 2 * podsetDeg[src].DropProb, else 0
	degDstDrop2 float64 // 2 * podsetDeg[dst].DropProb (distinct podset), else 0
	wanDrop2    float64 // 2 * InterDC.Drop
	degSrcLat   time.Duration
	degDstLat   time.Duration

	// rttFixed sums every deterministic Duration term of sampleRTT: host
	// and switch bases plus the WAN propagation when crossDC. Integer
	// arithmetic, so reassociation is exact.
	rttFixed time.Duration
	// serSyn is the serialization term for a SYN-sized packet.
	serSyn time.Duration
}

// buildPlan precomputes the probe plan for (src, dst) against ft.
func (n *Network) buildPlan(ft *faultTable, src, dst topology.ServerID) *pairPlan {
	ss, ds := n.top.Server(src), n.top.Server(dst)
	pl := &pairPlan{
		ft:      ft,
		sp:      n.profile(ss.DC),
		dp:      n.profile(ds.DC),
		srcAddr: ss.Addr,
		dstAddr: ds.Addr,
	}
	pl.srcDown = ft.podsetDown[psKey{ss.DC, ss.Podset}]
	pl.dstDown = ft.podsetDown[psKey{ds.DC, ds.Podset}]

	srcToR, dstToR := n.top.ToROf(src), n.top.ToROf(dst)
	if ft.perSwitch[srcToR].isolated || ft.perSwitch[dstToR].isolated {
		return pl // ok stays false: unreachable for every five-tuple
	}
	pl.ok = true

	// addStage appends one hop. members must share DC and tier (ToRs are
	// a single-member stage; ECMP stages are a podset's leaves or a DC's
	// spines). Mirrors resolve(): isolation-filtered members in order,
	// hash only when more than one candidate survives.
	addStage := func(members []topology.SwitchID, salt uint64) {
		if !pl.ok {
			return
		}
		st := planStage{}
		for _, m := range members {
			if !ft.perSwitch[m].isolated {
				st.faults = append(st.faults, &ft.perSwitch[m])
			}
		}
		if len(st.faults) == 0 {
			pl.ok = false
			return
		}
		if m := len(st.faults); m > 1 {
			st.hashPrefix = hash5Prefix(ss.Addr, ds.Addr, salt)
			if m&(m-1) == 0 {
				st.mask = uint64(m - 1)
			}
		}
		sw := n.top.Switch(members[0])
		st.prof = n.profile(sw.DC)
		st.useDstLoad = sw.DC == ds.DC
		switch sw.Tier {
		case topology.TierToR:
			st.tierDrop = st.prof.ToRDrop
		case topology.TierLeaf:
			st.tierDrop = st.prof.LeafDrop
		case topology.TierSpine:
			st.tierDrop = st.prof.SpineDrop
		}
		if d, okDeg := ft.tierDeg[tierKey{sw.DC, sw.Tier}]; okDeg {
			st.tierDegDrop = d.DropProb
			st.tierDegLat = d.ExtraLatencyMean
		}
		pl.stages[pl.nHops] = st
		pl.nHops++
	}
	fixed := func(sw topology.SwitchID) { addStage([]topology.SwitchID{sw}, 0) }

	switch {
	case srcToR == dstToR: // same pod: one ToR hop
		fixed(srcToR)
	case ss.DC == ds.DC && ss.Podset == ds.Podset: // same podset
		fixed(srcToR)
		addStage(n.top.DCs[ss.DC].Podsets[ss.Podset].Leaves, 1)
		fixed(dstToR)
	case ss.DC == ds.DC: // cross-podset, same DC
		fixed(srcToR)
		addStage(n.top.DCs[ss.DC].Podsets[ss.Podset].Leaves, 1)
		addStage(n.top.DCs[ss.DC].Spines, 2)
		addStage(n.top.DCs[ds.DC].Podsets[ds.Podset].Leaves, 4)
		fixed(dstToR)
	default: // cross-DC over the WAN
		pl.crossDC = true
		fixed(srcToR)
		addStage(n.top.DCs[ss.DC].Podsets[ss.Podset].Leaves, 1)
		addStage(n.top.DCs[ss.DC].Spines, 2)
		addStage(n.top.DCs[ds.DC].Spines, 3)
		addStage(n.top.DCs[ds.DC].Podsets[ds.Podset].Leaves, 4)
		fixed(dstToR)
	}
	if !pl.ok {
		return pl
	}

	pl.allFixed = true
	for i := 0; i < pl.nHops; i++ {
		if len(pl.stages[i].faults) != 1 {
			pl.allFixed = false
			break
		}
		pl.fixedChosen[i] = pl.stages[i].faults[0]
	}
	if !pl.allFixed {
		pl.fixedChosen = [6]*switchFault{}
	}

	pl.hopsF = float64(pl.nHops)
	pl.linksF = float64(2 * (pl.nHops + 1))
	pl.hostDrop2 = 2 * (pl.sp.HostDrop + pl.dp.HostDrop)
	pl.wanDrop2 = 2 * n.cfg.InterDC.Drop
	if d, okDeg := ft.podsetDeg[psKey{ss.DC, ss.Podset}]; okDeg {
		pl.degSrcDrop2 = 2 * d.DropProb
		pl.degSrcLat = d.ExtraLatencyMean
	}
	if d, okDeg := ft.podsetDeg[psKey{ds.DC, ds.Podset}]; okDeg && (ss.DC != ds.DC || ss.Podset != ds.Podset) {
		pl.degDstDrop2 = 2 * d.DropProb
		pl.degDstLat = d.ExtraLatencyMean
	}

	pl.dropConst = true
	for i := 0; i < pl.nHops; i++ {
		for _, f := range pl.stages[i].faults {
			if len(f.blackholes) > 0 {
				pl.anyBH = true
			}
			if f.randomDrop != 0 || f.fcsPerByte != 0 {
				pl.dropConst = false
			}
		}
	}
	if pl.dropConst {
		// Member choice cannot affect the sum, so evaluate the reference
		// loop once with the first candidate of every stage. fcsPerByte
		// is zero everywhere, so the result also holds for payload-sized
		// packets.
		var chosen [6]*switchFault
		for i := 0; i < pl.nHops; i++ {
			chosen[i] = pl.stages[i].faults[0]
		}
		pl.pDropSyn = pl.dropProb(&chosen, synPacketSize)
	}

	pl.rttFixed = 2*pl.sp.HostBase + 2*pl.dp.HostBase
	for i := 0; i < pl.nHops; i++ {
		pl.rttFixed += 2 * pl.stages[i].prof.SwitchBase
	}
	if pl.crossDC {
		pl.rttFixed += 2 * n.cfg.InterDC.BaseOneWay
	}
	pl.serSyn = time.Duration(perByteNanosPerLink * float64(synPacketSize) * pl.linksF)
	return pl
}

// pick returns the stage member a five-tuple with these ports takes:
// pickECMP's choice over the same isolation-filtered members, with the
// addresses already folded into hashPrefix.
func (st *planStage) pick(sport, dport uint16) *switchFault {
	if len(st.faults) == 1 {
		return st.faults[0]
	}
	h := hash5Ports(st.hashPrefix, sport, dport)
	if st.mask != 0 {
		return st.faults[h&st.mask]
	}
	return st.faults[h%uint64(len(st.faults))]
}

// hops writes the switches a five-tuple with these ports traverses into
// out, which holds exactly nHops: resolve's route under the plan's fault
// table, hashing only the ports. The plan must be ok.
func (pl *pairPlan) hops(out []topology.SwitchID, sport, dport uint16) {
	for i := range out {
		out[i] = pl.stages[i].pick(sport, dport).id
	}
}

// dropProb replicates roundTripDropProb float-op for float-op over the
// chosen members.
func (pl *pairPlan) dropProb(chosen *[6]*switchFault, pktSize int) float64 {
	p := pl.hostDrop2
	for i := 0; i < pl.nHops; i++ {
		st := &pl.stages[i]
		f := chosen[i]
		hop := st.tierDrop + f.randomDrop + f.fcsPerByte*float64(pktSize)
		hop += st.tierDegDrop
		p += 2 * hop
	}
	p += pl.degSrcDrop2
	p += pl.degDstDrop2
	if pl.crossDC {
		p += pl.wanDrop2
	}
	if p > 1 {
		p = 1
	}
	return p
}

// planCache is one fault-table epoch's worth of pair plans.
type planCache struct {
	ft *faultTable
	mu sync.RWMutex
	m  map[uint64]*pairPlan
}

func pairKey(src, dst topology.ServerID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// planFor returns the cached plan for (src, dst) under ft, building and
// publishing it on a miss. Duplicate builds under contention are benign:
// plans for the same (ft, pair) are interchangeable.
func (n *Network) planFor(ft *faultTable, src, dst topology.ServerID) *pairPlan {
	pc := n.plans.Load()
	if pc == nil || pc.ft != ft {
		fresh := &planCache{ft: ft, m: make(map[uint64]*pairPlan)}
		if n.plans.CompareAndSwap(pc, fresh) {
			pc = fresh
		} else {
			pc = n.plans.Load()
		}
	}
	if pc == nil || pc.ft != ft {
		// Lost a race against an even newer epoch; serve an uncached
		// build for this call rather than poison the newer cache.
		return n.buildPlan(ft, src, dst)
	}
	key := pairKey(src, dst)
	pc.mu.RLock()
	pl := pc.m[key]
	pc.mu.RUnlock()
	if pl != nil && pl.ft == ft {
		return pl
	}
	pl = n.buildPlan(ft, src, dst)
	pc.mu.Lock()
	pc.m[key] = pl
	pc.mu.Unlock()
	return pl
}

// Probe simulates one TCP/HTTP probe. rng must not be shared across
// goroutines; the caller owns sharding. Probes are served from the
// per-pair plan cache; results are byte-identical to the uncached
// reference path, including rng consumption.
func (n *Network) Probe(spec ProbeSpec, rng *rand.Rand) Result {
	ft := n.faults.Load()
	var res Result
	n.probeWithPlan(n.planFor(ft, spec.Src, spec.Dst), &spec, rng, &res)
	return res
}

// PairProber is a caller-owned probe handle for one (src, dst) pair. It
// keeps the pair's plan across calls so steady-state probing is a
// pointer comparison away from the precomputed path — no map lookup. A
// PairProber must not be shared across goroutines (like the rng); fault
// injection invalidates it automatically via the fault-table epoch.
type PairProber struct {
	n        *Network
	src, dst topology.ServerID
	pl       *pairPlan
}

// PairProber returns a probe handle for the pair. The spec passed to
// Probe must carry the same Src/Dst.
func (n *Network) PairProber(src, dst topology.ServerID) *PairProber {
	return &PairProber{n: n, src: src, dst: dst}
}

func (p *PairProber) plan() *pairPlan {
	ft := p.n.faults.Load()
	if pl := p.pl; pl != nil && pl.ft == ft {
		return pl
	}
	p.pl = p.n.planFor(ft, p.src, p.dst)
	return p.pl
}

// Probe simulates one probe for the prober's pair. spec.Src/Dst are
// trusted to match the pair the prober was created for. spec is only
// read, never retained.
func (p *PairProber) Probe(spec *ProbeSpec, rng *rand.Rand) Result {
	var res Result
	p.n.probeWithPlan(p.plan(), spec, rng, &res)
	return res
}

// ProbeScheduled runs one scheduled probe into res, returning false —
// without simulating anything or consuming rng — when the source podset
// is powered off. Fleet schedulers use it so a downed server's ticks
// cost one pointer compare (the white rows of Figure 8(b)). res is an
// out-param so tight probe loops reuse one Result instead of copying a
// return value through every frame.
func (p *PairProber) ProbeScheduled(spec *ProbeSpec, rng *rand.Rand, res *Result) bool {
	pl := p.plan()
	if pl.srcDown {
		return false
	}
	p.n.probeWithPlan(pl, spec, rng, res)
	return true
}

// probeWithPlan is the cached Probe fast path. Every branch and rng draw
// mirrors probeReference exactly; see the bit-exactness contract above.
// It overwrites *res completely.
func (n *Network) probeWithPlan(pl *pairPlan, spec *ProbeSpec, rng *rand.Rand, res *Result) {
	if pl.srcDown || pl.dstDown || !pl.ok {
		*res = Result{Err: ErrUnreachable, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
		return
	}

	// Resolve the ECMP member of every stage from the cached candidate
	// sets; identical to pickECMP over the isolation-filtered list.
	var chosenBuf [6]*switchFault
	chosen := &pl.fixedChosen
	if !pl.allFixed {
		for i := 0; i < pl.nHops; i++ {
			chosenBuf[i] = pl.stages[i].pick(spec.SrcPort, spec.DstPort)
		}
		chosen = &chosenBuf
	}

	if pl.anyBH {
		for i := 0; i < pl.nHops; i++ {
			bhs := chosen[i].blackholes
			for bi := range bhs {
				b := &bhs[bi]
				if b.matches(pl.srcAddr, pl.dstAddr, spec.SrcPort, spec.DstPort) ||
					b.matches(pl.dstAddr, pl.srcAddr, spec.DstPort, spec.SrcPort) {
					*res = Result{Err: ErrTimeout, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
					return
				}
			}
		}
	}

	pDrop := pl.pDropSyn
	if !pl.dropConst {
		pDrop = pl.dropProb(chosen, synPacketSize)
	}
	*res = Result{}
	for attempt := 0; attempt <= SYNRetries; attempt++ {
		p := pDrop
		if attempt > 0 {
			p += pl.sp.RetryDropBoost
		}
		res.Attempts = attempt + 1
		if rng.Float64() < p {
			continue
		}
		rtt := n.sampleRTTPlan(pl, chosen, spec, pl.serSyn, rng)
		res.RTT = synRetryOffsets[attempt] + rtt
		res.Elapsed = res.RTT
		if spec.PayloadLen > 0 {
			n.payloadEchoPlan(pl, chosen, spec, rng, res)
		}
		return
	}
	*res = Result{Err: ErrTimeout, Elapsed: ConnectFailAt, Attempts: SYNRetries + 1}
}

// payloadEchoPlan mirrors payloadEcho on the cached path.
func (n *Network) payloadEchoPlan(pl *pairPlan, chosen *[6]*switchFault, spec *ProbeSpec, rng *rand.Rand, res *Result) {
	pktSize := spec.PayloadLen + 60
	pDrop := pl.pDropSyn // pktSize-independent when dropConst (fcs == 0)
	if !pl.dropConst {
		pDrop = pl.dropProb(chosen, pktSize)
	}
	ser := time.Duration(perByteNanosPerLink * float64(pktSize) * pl.linksF)
	var wait time.Duration
	for attempt := 0; attempt <= payloadMaxRetries; attempt++ {
		if rng.Float64() < pDrop {
			wait += payloadRTO << attempt
			continue
		}
		rtt := n.sampleRTTPlan(pl, chosen, spec, ser, rng)
		app := pl.dp.AppEchoBase + expDur(rng, pl.dp.AppEchoNoise)
		if spec.Proto == probe.HTTP {
			app += pl.dp.HTTPOverhead
		}
		res.PayloadRTT = wait + rtt + app
		res.Elapsed += res.PayloadRTT
		return
	}
	res.Err = ErrPayloadTimeout
	res.Elapsed += wait
}

// sampleRTTPlan mirrors sampleRTT draw for draw. All deterministic
// Duration terms are folded into pl.rttFixed and ser; the float
// probability products keep the reference association order.
func (n *Network) sampleRTTPlan(pl *pairPlan, chosen *[6]*switchFault, spec *ProbeSpec, ser time.Duration, rng *rand.Rand) time.Duration {
	sp, dp := pl.sp, pl.dp
	loadS, loadD := sp.load(spec.Start), dp.load(spec.Start)
	qos := 1.0
	if spec.QoS == probe.QoSLow {
		qos = lowQoSQueueFactor
	}

	d := pl.rttFixed
	d += expDur(rng, sp.HostNoise) + expDur(rng, dp.HostNoise)

	for i := 0; i < pl.nHops; i++ {
		st := &pl.stages[i]
		load := loadS
		if st.useDstLoad {
			load = loadD
		}
		qm := scaleDur(st.prof.QueueMean, load*qos)
		d += expDur(rng, qm)
		d += expDur(rng, qm)
		f := chosen[i]
		if f.extraLatMean > 0 {
			d += expDur(rng, f.extraLatMean) + expDur(rng, f.extraLatMean)
		}
		if st.tierDegLat > 0 {
			d += expDur(rng, st.tierDegLat) + expDur(rng, st.tierDegLat)
		}
	}

	if rng.Float64() < clamp01(pl.hopsF*sp.BurstProb*loadS*qos) {
		d += expDur(rng, sp.BurstMean)
	}
	if rng.Float64() < clamp01(pl.hopsF*dp.BurstProb*loadD*qos) {
		d += expDur(rng, dp.BurstMean)
	}
	if rng.Float64() < clamp01((sp.BigBurstProb*loadS+dp.BigBurstProb*loadD)/2*qos) {
		d += expDur(rng, (sp.BigBurstMean+dp.BigBurstMean)/2)
	}
	if rng.Float64() < sp.StallProb {
		d += sp.StallMin + expDur(rng, sp.StallMean)
	} else if rng.Float64() < dp.StallProb {
		d += dp.StallMin + expDur(rng, dp.StallMean)
	}

	if pl.degSrcLat > 0 {
		d += expDur(rng, pl.degSrcLat) + expDur(rng, pl.degSrcLat)
	}
	if pl.degDstLat > 0 {
		d += expDur(rng, pl.degDstLat) + expDur(rng, pl.degDstLat)
	}

	if pl.crossDC {
		d += expDur(rng, n.cfg.InterDC.JitterMean) + expDur(rng, n.cfg.InterDC.JitterMean)
	}

	d += ser
	return d
}
