// Package core implements the Pingmesh Generator — the pinglist generation
// algorithm at the heart of the Pingmesh Controller (§3.3.1) and the
// paper's primary contribution. It decides which server probes which
// peers by composing three levels of complete graphs:
//
//  1. within a pod, all servers under the same ToR form a complete graph;
//  2. within a DC, the ToRs form a complete graph realized by letting
//     server i under ToRx ping server i under ToRy for every ToR pair;
//  3. across DCs, the data centers form a complete graph realized by a
//     selected subset of servers (several per podset) in each DC.
//
// Only servers probe. Even when two servers appear in each other's
// pinglists they measure independently, so every server computes its own
// latency and drop rate. The generator is deterministic: every controller
// replica produces byte-identical pinglists for the same topology and
// configuration, which is what keeps the controller stateless and
// trivially scalable behind a load balancer (§3.3.2).
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// GeneratorConfig parameterizes pinglist generation.
type GeneratorConfig struct {
	// ProbePort is the TCP port agents listen on for high-priority probes.
	ProbePort uint16
	// LowQoSPort, if nonzero and QoSLow enabled, is the additional TCP port
	// configured for low-priority (DSCP-marked) traffic (§6.2).
	LowQoSPort uint16
	// HTTPPort, if nonzero, adds HTTP probes on this port for intra-pod
	// peers (applications use both TCP and HTTP, §3.4.1).
	HTTPPort uint16

	// IntraPodInterval, IntraDCInterval and InterDCInterval are the probing
	// intervals per class, clamped to at least pinglist.MinProbeInterval.
	IntraPodInterval time.Duration
	IntraDCInterval  time.Duration
	InterDCInterval  time.Duration

	// PayloadBytes, if positive, duplicates each intra-DC peer with a
	// payload probe so the pipeline can compare latency with and without
	// payload (Figure 4(d)) and catch length-dependent drops.
	PayloadBytes int

	// WithLowQoS duplicates peers with QoSLow probes on LowQoSPort.
	WithLowQoS bool

	// InterDCServersPerPodset is how many servers per podset join the
	// inter-DC complete graph.
	InterDCServersPerPodset int

	// MaxPeersPerServer caps the pinglist length; the intra-DC ring is
	// stride-sampled down to fit (threshold limiting, §3.3.1). 0 means the
	// default of 5000 — the paper's upper bound for per-server fan-out.
	MaxPeersPerServer int

	// VIPs are extra virtual-IP targets appended to selected servers'
	// pinglists for VIP availability monitoring (§6.2).
	VIPs []pinglist.Peer
	// VIPProbersPerPodset is how many servers per podset probe the VIPs.
	VIPProbersPerPodset int

	// Parallelism is how many worker goroutines shard pinglist generation
	// (and, in the controller, the marshaling and patching done with it).
	// 0 means GOMAXPROCS. The algorithm is per-server deterministic, so the
	// output is byte-identical at every parallelism level — the property
	// that keeps controller replicas stateless (§3.3.2).
	Parallelism int
}

// DefaultGeneratorConfig returns the production-like defaults.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		ProbePort:               8765,
		IntraPodInterval:        10 * time.Second,
		IntraDCInterval:         30 * time.Second,
		InterDCInterval:         60 * time.Second,
		InterDCServersPerPodset: 2,
		MaxPeersPerServer:       5000,
	}
}

func (c *GeneratorConfig) normalize() {
	if c.ProbePort == 0 {
		c.ProbePort = 8765
	}
	if c.MaxPeersPerServer <= 0 {
		c.MaxPeersPerServer = 5000
	}
	if c.InterDCServersPerPodset <= 0 {
		c.InterDCServersPerPodset = 2
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	for _, iv := range []*time.Duration{&c.IntraPodInterval, &c.IntraDCInterval, &c.InterDCInterval} {
		if *iv < pinglist.MinProbeInterval {
			*iv = pinglist.MinProbeInterval
		}
	}
}

// Generate computes the pinglist for every server in the topology. The
// version string must change whenever topology or configuration changes so
// agents pick up the new lists; now is stamped into each file.
func Generate(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time) (map[topology.ServerID]*pinglist.File, error) {
	all := make([]topology.ServerID, top.NumServers())
	for i := range all {
		all[i] = topology.ServerID(i)
	}
	return GenerateSubset(top, cfg, version, now, all)
}

// GenerateSubset computes pinglists for the given servers only. The files
// are identical to the ones Generate would produce — the algorithm is
// per-server deterministic — so the controller can regenerate single files
// and large-scale analyses can sample fan-out without materializing the
// whole fleet's lists. Each file gets a copy of the peers its worker
// generated into scratch.
func GenerateSubset(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time, servers []topology.ServerID) (map[topology.ServerID]*pinglist.File, error) {
	g, err := NewGenerator(top, cfg, version, now)
	if err != nil {
		return nil, err
	}
	files := make([]*pinglist.File, len(servers))
	scratch := make([]Scratch, g.Workers(len(servers)))
	g.Each(len(servers), func(w, i int) {
		f := *g.File(servers[i], &scratch[w])
		f.Peers = append([]pinglist.Peer(nil), f.Peers...)
		files[i] = &f
	})
	out := make(map[topology.ServerID]*pinglist.File, len(servers))
	for i, id := range servers {
		out[id] = files[i]
	}
	return out, nil
}

// Generator is one generation run: the topology, the normalized
// configuration, and what every server's file reads — the inter-DC
// selection and each server's address string — computed once. It is
// immutable, so any number of workers may call File concurrently for
// disjoint servers, each with its own Scratch; each file depends only on
// these inputs, so the files are byte-identical at every parallelism level.
type Generator struct {
	top     *topology.Topology
	cfg     GeneratorConfig
	version string
	now     time.Time
	interDC []bool   // by ServerID: joins the inter-DC complete graph
	addrs   []string // by ServerID: the address peers carry
}

// Scratch is one worker's reusable space: the file File returns, whose
// peer slice grows to fit once, and the intra-DC target list.
type Scratch struct {
	file    pinglist.File
	targets []topology.ServerID
}

// NewGenerator prepares a generation run over top; version and now are
// stamped into every file.
func NewGenerator(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time) (*Generator, error) {
	cfg.normalize()
	if err := top.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g := &Generator{top: top, cfg: cfg, version: version, now: now,
		interDC: interDCSelection(top, cfg.InterDCServersPerPodset),
		addrs:   make([]string, top.NumServers()),
	}
	for i := range g.addrs {
		g.addrs[i] = top.Server(topology.ServerID(i)).Addr.String()
	}
	return g, nil
}

// Workers is how many workers Each runs for n servers: the configured
// parallelism, but no more than there are servers to claim.
func (g *Generator) Workers(n int) int {
	return max(1, min(g.cfg.Parallelism, n))
}

// Each calls fn(w, i) once for every i in [0, n) on Workers(n) goroutines,
// w being the calling worker's index, so fn can keep per-worker state such
// as a Scratch. Workers claim one index at a time: a server's file takes
// microseconds, the claim nanoseconds, and uneven pods stay balanced.
func (g *Generator) Each(n int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range g.Workers(n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// File computes server id's pinglist into s. The file and its peers are
// s's: they stay valid until the next call with s, and a caller that keeps
// the file past that copies it.
func (g *Generator) File(id topology.ServerID, s *Scratch) *pinglist.File {
	srv := g.top.Server(id)
	f := &s.file
	*f = pinglist.File{Server: srv.Name, Version: g.version, Generated: g.now, Peers: f.Peers[:0]}
	g.intraPodPeers(f, srv)
	g.intraDCPeers(f, srv, s)
	g.interDCPeers(f, srv)
	g.vipPeers(f, srv)
	return f
}

func (g *Generator) addPeer(f *pinglist.File, addr string, port uint16, class probe.Class, proto probe.Proto, qos probe.QoS, interval time.Duration, payload int) {
	f.Peers = append(f.Peers, pinglist.Peer{
		Addr:        addr,
		Port:        port,
		Class:       class.String(),
		Proto:       proto.String(),
		QoS:         qos.String(),
		IntervalSec: int(interval / time.Second),
		PayloadLen:  payload,
	})
}

// expand emits the configured variants of one target: the base TCP probe,
// the optional payload probe, the optional low-QoS probe, and the optional
// HTTP probe (intra-pod only, to bound fan-out).
func (g *Generator) expand(f *pinglist.File, addr string, class probe.Class, interval time.Duration) {
	g.addPeer(f, addr, g.cfg.ProbePort, class, probe.TCP, probe.QoSHigh, interval, 0)
	if g.cfg.PayloadBytes > 0 && class != probe.InterDC {
		g.addPeer(f, addr, g.cfg.ProbePort, class, probe.TCP, probe.QoSHigh, interval, g.cfg.PayloadBytes)
	}
	if g.cfg.WithLowQoS && g.cfg.LowQoSPort != 0 {
		g.addPeer(f, addr, g.cfg.LowQoSPort, class, probe.TCP, probe.QoSLow, interval, 0)
	}
	if g.cfg.HTTPPort != 0 && class == probe.IntraPod {
		g.addPeer(f, addr, g.cfg.HTTPPort, class, probe.HTTP, probe.QoSHigh, interval, 128)
	}
}

// intraPodPeers: complete graph among the servers under the same ToR.
func (g *Generator) intraPodPeers(f *pinglist.File, s *topology.Server) {
	pod := g.top.PodOf(s.ID)
	for _, peer := range pod.Servers {
		if peer == s.ID {
			continue
		}
		g.expand(f, g.addrs[peer], probe.IntraPod, g.cfg.IntraPodInterval)
	}
}

// intraDCPeers: the ToR-level complete graph. For every other ToR in the
// DC, server i under this ToR pings server i under that ToR (if that rack
// has a server with the same rank). The peer set is stride-sampled if it
// would blow the per-server cap.
func (g *Generator) intraDCPeers(f *pinglist.File, s *topology.Server, scratch *Scratch) {
	dc := &g.top.DCs[s.DC]
	targets := scratch.targets[:0]
	for psi := range dc.Podsets {
		for qi := range dc.Podsets[psi].Pods {
			if psi == s.Podset && qi == s.Pod {
				continue
			}
			pod := &dc.Podsets[psi].Pods[qi]
			if s.Rank < len(pod.Servers) {
				targets = append(targets, pod.Servers[s.Rank])
			}
		}
	}
	// Budget: whatever the cap leaves after intra-pod peers, reserving a
	// sliver for inter-DC and VIP entries.
	budget := g.cfg.MaxPeersPerServer - len(f.Peers) - 64
	if budget < 1 {
		budget = 1
	}
	variants := 1
	if g.cfg.PayloadBytes > 0 {
		variants++
	}
	if g.cfg.WithLowQoS && g.cfg.LowQoSPort != 0 {
		variants++
	}
	budget /= variants
	scratch.targets = targets
	for _, id := range strideSample(targets, budget) {
		g.expand(f, g.addrs[id], probe.IntraDC, g.cfg.IntraDCInterval)
	}
}

// interDCPeers: the DC-level complete graph among selected servers.
func (g *Generator) interDCPeers(f *pinglist.File, s *topology.Server) {
	if !g.interDC[s.ID] {
		return
	}
	for _, peer := range g.top.Servers() {
		if peer.DC == s.DC || !g.interDC[peer.ID] {
			continue
		}
		g.expand(f, g.addrs[peer.ID], probe.InterDC, g.cfg.InterDCInterval)
	}
}

// vipPeers appends VIP monitoring targets to the designated probers.
func (g *Generator) vipPeers(f *pinglist.File, s *topology.Server) {
	if len(g.cfg.VIPs) == 0 || g.cfg.VIPProbersPerPodset <= 0 {
		return
	}
	// The first servers of the first pods in each podset carry VIP duty.
	if s.Pod != 0 || s.Rank >= g.cfg.VIPProbersPerPodset {
		return
	}
	f.Peers = append(f.Peers, g.cfg.VIPs...)
}

// interDCSelection picks the servers that join the inter-DC complete
// graph: the first perPodset servers of each podset, spread across pods.
func interDCSelection(top *topology.Topology, perPodset int) []bool {
	sel := make([]bool, top.NumServers())
	for di := range top.DCs {
		for psi := range top.DCs[di].Podsets {
			ps := &top.DCs[di].Podsets[psi]
			picked := 0
			for qi := 0; qi < len(ps.Pods) && picked < perPodset; qi++ {
				pod := &ps.Pods[qi]
				if len(pod.Servers) > 0 {
					sel[pod.Servers[0]] = true
					picked++
				}
			}
		}
	}
	return sel
}

// strideSample keeps n elements of s at a uniform stride, deterministically,
// in place: element i moves down from index i·len(s)/n ≥ i.
func strideSample(s []topology.ServerID, n int) []topology.ServerID {
	if n >= len(s) {
		return s
	}
	step := float64(len(s)) / float64(n)
	for i := 0; i < n; i++ {
		s[i] = s[int(float64(i)*step)]
	}
	return s[:n]
}
