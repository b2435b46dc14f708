package netsim

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/topology"
)

// Config configures a simulated network.
type Config struct {
	// Profiles holds one Profile per DC, in topology DC order. If fewer
	// profiles than DCs are given, the last profile is reused.
	Profiles []Profile
	// InterDC models the long-haul network between data centers.
	InterDC InterDCConfig
}

// InterDCConfig models the inter-DC WAN.
type InterDCConfig struct {
	// BaseOneWay is the propagation delay between two DCs, one way.
	BaseOneWay time.Duration
	// JitterMean is the mean exponential jitter per direction.
	JitterMean time.Duration
	// Drop is the per-direction packet drop probability on the WAN.
	Drop float64
}

// DefaultInterDC returns a WAN model with ~24ms base RTT.
func DefaultInterDC() InterDCConfig {
	return InterDCConfig{
		BaseOneWay: 12 * time.Millisecond,
		JitterMean: 250 * time.Microsecond,
		Drop:       2e-6,
	}
}

// Degradation is extra loss and latency applied by a fault.
type Degradation struct {
	// DropProb is added to the per-traversal drop probability.
	DropProb float64
	// ExtraLatencyMean, if positive, adds an exponential delay with this
	// mean per traversal.
	ExtraLatencyMean time.Duration
}

// Blackhole is a deterministic switch packet drop rule (§5.1): packets
// matching certain header patterns are dropped 100% of the time, caused by
// TCAM corruption (type 1, address-based) or ECMP errors (type 2, address
// and port based).
type Blackhole struct {
	// MatchFraction is the fraction of the header space the corrupt TCAM
	// entries cover; a packet is dropped when the hash of its headers lands
	// below this fraction. The decision is deterministic per header tuple.
	MatchFraction float64
	// IncludePorts makes the match depend on transport ports too (type 2
	// black-holes): the same address pair then behaves differently for
	// different source ports.
	IncludePorts bool
	// Pairs optionally lists explicit (src,dst) address pairs to drop,
	// in addition to the MatchFraction rule.
	Pairs []AddrPair
}

// AddrPair is an explicit black-holed source/destination pair.
type AddrPair struct {
	Src, Dst netip.Addr
}

func (b *Blackhole) matches(src, dst netip.Addr, sport, dport uint16) bool {
	for _, p := range b.Pairs {
		if p.Src == src && p.Dst == dst {
			return true
		}
	}
	if b.MatchFraction <= 0 {
		return false
	}
	h := fnv.New64a()
	s4, d4 := src.As4(), dst.As4()
	h.Write(s4[:])
	h.Write(d4[:])
	if b.IncludePorts {
		h.Write([]byte{byte(sport >> 8), byte(sport), byte(dport >> 8), byte(dport)})
	}
	// FNV over near-identical short inputs (sequential 10.x addresses)
	// leaves the output heavily correlated with single input bytes, which
	// would turn an address-pattern black-hole into a whole-host outage.
	// A finalizer avalanche makes the match fraction uniform per tuple.
	mixed := mix64(h.Sum64())
	const scale = 1 << 53
	frac := float64(mixed&(scale-1)) / scale
	return frac < b.MatchFraction
}

// mix64 is the splitmix64 finalizer: full avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// switchFault is the fault state of one switch, which it names: a probe
// plan's stage holds pointers to its alive members' entries, so the entry
// is how a plan says which switch it picked. Healthy is {id: sw}.
type switchFault struct {
	blackholes   []Blackhole
	randomDrop   float64
	persistent   bool              // random drop survives a reload (needs RMA, §5.2)
	id           topology.SwitchID // the switch this entry describes
	fcsPerByte   float64
	extraLatMean time.Duration
	isolated     bool
}

func (f *switchFault) any() bool {
	return len(f.blackholes) > 0 || f.randomDrop > 0 || f.fcsPerByte > 0 ||
		f.extraLatMean > 0 || f.isolated
}

type psKey struct{ dc, podset int }
type tierKey struct {
	dc   int
	tier topology.Tier
}

// faultTable is an immutable snapshot of every injected fault; Probe loads
// it once per call so fault mutation never blocks the probing hot path.
type faultTable struct {
	perSwitch  []switchFault
	podsetDown map[psKey]bool
	podsetDeg  map[psKey]Degradation
	tierDeg    map[tierKey]Degradation
}

func (ft *faultTable) clone() *faultTable {
	c := &faultTable{
		perSwitch:  append([]switchFault(nil), ft.perSwitch...),
		podsetDown: make(map[psKey]bool, len(ft.podsetDown)),
		podsetDeg:  make(map[psKey]Degradation, len(ft.podsetDeg)),
		tierDeg:    make(map[tierKey]Degradation, len(ft.tierDeg)),
	}
	for i := range ft.perSwitch {
		c.perSwitch[i].blackholes = append([]Blackhole(nil), ft.perSwitch[i].blackholes...)
	}
	for k, v := range ft.podsetDown {
		c.podsetDown[k] = v
	}
	for k, v := range ft.podsetDeg {
		c.podsetDeg[k] = v
	}
	for k, v := range ft.tierDeg {
		c.tierDeg[k] = v
	}
	return c
}

// lowQoSQueueFactor scales queuing delay for QoSLow probes: DSCP-based QoS
// gives low-priority packets deeper queues.
const lowQoSQueueFactor = 1.6

// Network is a simulated multi-DC fabric. It is safe for concurrent use:
// probes are lock-free; fault injection swaps an immutable fault table,
// which also invalidates the per-pair probe plan cache (plans embed the
// fault-table pointer they were built from).
type Network struct {
	top    *topology.Topology
	cfg    Config
	mu     sync.Mutex // serializes fault mutation
	faults atomic.Pointer[faultTable]
	plans  atomic.Pointer[planCache]
}

// New builds a simulated network over the topology.
func New(top *topology.Topology, cfg Config) (*Network, error) {
	if len(cfg.Profiles) == 0 {
		return nil, fmt.Errorf("netsim: config has no profiles")
	}
	for i := range cfg.Profiles {
		if err := cfg.Profiles[i].validate(); err != nil {
			return nil, err
		}
	}
	if cfg.InterDC == (InterDCConfig{}) {
		cfg.InterDC = DefaultInterDC()
	}
	n := &Network{top: top, cfg: cfg}
	ft := &faultTable{
		perSwitch:  make([]switchFault, top.NumSwitches()),
		podsetDown: map[psKey]bool{},
		podsetDeg:  map[psKey]Degradation{},
		tierDeg:    map[tierKey]Degradation{},
	}
	for i := range ft.perSwitch {
		ft.perSwitch[i].id = topology.SwitchID(i)
	}
	n.faults.Store(ft)
	return n, nil
}

// Topology returns the topology the network simulates.
func (n *Network) Topology() *topology.Topology { return n.top }

func (n *Network) profile(dc int) *Profile {
	if dc >= len(n.cfg.Profiles) {
		return &n.cfg.Profiles[len(n.cfg.Profiles)-1]
	}
	return &n.cfg.Profiles[dc]
}

// mutate applies fn to a copy of the fault table and publishes it.
func (n *Network) mutate(fn func(*faultTable)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ft := n.faults.Load().clone()
	fn(ft)
	n.faults.Store(ft)
}

// AddBlackhole installs a black-hole rule on a switch.
func (n *Network) AddBlackhole(sw topology.SwitchID, b Blackhole) {
	n.mutate(func(ft *faultTable) {
		ft.perSwitch[sw].blackholes = append(ft.perSwitch[sw].blackholes, b)
	})
}

// SetRandomDrop makes a switch silently drop packets with the given
// probability. persistent marks hardware faults (fabric CRC, bit flips)
// that a reload cannot fix — only RMA (§5.2).
func (n *Network) SetRandomDrop(sw topology.SwitchID, prob float64, persistent bool) {
	n.mutate(func(ft *faultTable) {
		ft.perSwitch[sw].randomDrop = prob
		ft.perSwitch[sw].persistent = persistent
	})
}

// SetFCSError makes packets traversing the switch fail with a probability
// proportional to packet length (fiber FCS errors scale with bit count,
// §4.2).
func (n *Network) SetFCSError(sw topology.SwitchID, perByte float64) {
	n.mutate(func(ft *faultTable) {
		ft.perSwitch[sw].fcsPerByte = perByte
	})
}

// SetExtraLatency adds an exponential per-traversal delay at the switch.
func (n *Network) SetExtraLatency(sw topology.SwitchID, mean time.Duration) {
	n.mutate(func(ft *faultTable) {
		ft.perSwitch[sw].extraLatMean = mean
	})
}

// ReloadSwitch reboots a switch, clearing black-holes and non-persistent
// random drops (the paper's repair action for black-holed ToRs, §5.1).
func (n *Network) ReloadSwitch(sw topology.SwitchID) {
	n.mutate(func(ft *faultTable) {
		f := &ft.perSwitch[sw]
		f.blackholes = nil
		if !f.persistent {
			f.randomDrop = 0
		}
	})
}

// IsolateSwitch removes a switch from ECMP rotation (taking a faulty Spine
// out of serving live traffic, §5.2).
func (n *Network) IsolateSwitch(sw topology.SwitchID) {
	n.mutate(func(ft *faultTable) { ft.perSwitch[sw].isolated = true })
}

// UnisolateSwitch returns a switch to rotation.
func (n *Network) UnisolateSwitch(sw topology.SwitchID) {
	n.mutate(func(ft *faultTable) { ft.perSwitch[sw].isolated = false })
}

// ReplaceSwitch models an RMA: the faulty device is swapped for a healthy
// one, clearing all faults including persistent ones.
func (n *Network) ReplaceSwitch(sw topology.SwitchID) {
	n.mutate(func(ft *faultTable) { ft.perSwitch[sw] = switchFault{id: sw} })
}

// SetPodsetDown powers a podset off (or back on): its servers neither send
// nor receive (the white-cross pattern of Figure 8(b)).
func (n *Network) SetPodsetDown(dc, podset int, down bool) {
	n.mutate(func(ft *faultTable) {
		k := psKey{dc, podset}
		if down {
			ft.podsetDown[k] = true
		} else {
			delete(ft.podsetDown, k)
		}
	})
}

// SetPodsetDegraded injects loss/latency on every path entering or leaving
// a podset (e.g. a broadcast storm inside an L2 podset — the red-cross
// pattern of Figure 8(c)). A zero Degradation clears it.
func (n *Network) SetPodsetDegraded(dc, podset int, d Degradation) {
	n.mutate(func(ft *faultTable) {
		k := psKey{dc, podset}
		if d == (Degradation{}) {
			delete(ft.podsetDeg, k)
		} else {
			ft.podsetDeg[k] = d
		}
	})
}

// SetTierDegraded injects loss/latency on every traversal of a switch tier
// in a DC (the spine-layer failure of Figure 8(d)). A zero Degradation
// clears it.
func (n *Network) SetTierDegraded(dc int, tier topology.Tier, d Degradation) {
	n.mutate(func(ft *faultTable) {
		k := tierKey{dc, tier}
		if d == (Degradation{}) {
			delete(ft.tierDeg, k)
		} else {
			ft.tierDeg[k] = d
		}
	})
}

// ServerUp reports whether the server's podset is powered.
func (n *Network) ServerUp(id topology.ServerID) bool {
	s := n.top.Server(id)
	return !n.faults.Load().podsetDown[psKey{s.DC, s.Podset}]
}

// SwitchFaulty reports whether a switch currently has any fault installed
// (used by tests and by the repair service to verify its actions).
func (n *Network) SwitchFaulty(sw topology.SwitchID) bool {
	ft := n.faults.Load()
	return ft.perSwitch[sw].any()
}

// FaultySwitches lists switches with at least one fault.
func (n *Network) FaultySwitches() []topology.SwitchID {
	ft := n.faults.Load()
	var out []topology.SwitchID
	for i := range ft.perSwitch {
		if ft.perSwitch[i].any() {
			out = append(out, topology.SwitchID(i))
		}
	}
	return out
}
