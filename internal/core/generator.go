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

	// Parallelism is how many worker goroutines shard pinglist generation.
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

// Stats reports how one generation run was executed: how many servers it
// covered, how many workers sharded the loop, and the wall-clock duration.
type Stats struct {
	Servers int
	Workers int
	Wall    time.Duration
}

// Generate computes the pinglist for every server in the topology. The
// version string must change whenever topology or configuration changes so
// agents pick up the new lists; now is stamped into each file.
func Generate(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time) (map[topology.ServerID]*pinglist.File, error) {
	out, _, err := GenerateWithStats(top, cfg, version, now)
	return out, err
}

// GenerateWithStats is Generate plus execution statistics, so callers (the
// controller's perf counters) can observe the generation's wall time and
// worker count.
func GenerateWithStats(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time) (map[topology.ServerID]*pinglist.File, Stats, error) {
	all := make([]topology.ServerID, top.NumServers())
	for i := range all {
		all[i] = topology.ServerID(i)
	}
	return GenerateSubsetWithStats(top, cfg, version, now, all)
}

// GenerateSubset computes pinglists for the given servers only. The files
// are identical to the ones Generate would produce — the algorithm is
// per-server deterministic — so the controller can regenerate single files
// and large-scale analyses can sample fan-out without materializing the
// whole fleet's lists.
func GenerateSubset(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time, servers []topology.ServerID) (map[topology.ServerID]*pinglist.File, error) {
	out, _, err := GenerateSubsetWithStats(top, cfg, version, now, servers)
	return out, err
}

// shardSize is how many servers one worker claims at a time. Small enough
// to balance uneven pods, large enough that the atomic claim is noise.
const shardSize = 32

// GenerateSubsetWithStats is GenerateSubset plus execution statistics.
// Generation shards the server list across cfg.Parallelism workers; each
// server's file depends only on the immutable topology and configuration,
// so the merged result is byte-identical to a serial run.
func GenerateSubsetWithStats(top *topology.Topology, cfg GeneratorConfig, version string, now time.Time, servers []topology.ServerID) (map[topology.ServerID]*pinglist.File, Stats, error) {
	cfg.normalize()
	if err := top.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("core: %w", err)
	}
	g := &generator{top: top, cfg: cfg, version: version, now: now}
	interDC := interDCSelection(top, cfg.InterDCServersPerPodset)

	workers := cfg.Parallelism
	if max := (len(servers) + shardSize - 1) / shardSize; workers > max {
		workers = max // no point spinning workers with nothing to claim
	}
	stats := Stats{Servers: len(servers), Workers: workers}
	wallStart := time.Now()
	files := make([]*pinglist.File, len(servers))

	if workers <= 1 {
		for i, id := range servers {
			files[i] = g.generateOne(id, interDC)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					lo := int(next.Add(shardSize)) - shardSize
					if lo >= len(servers) {
						break
					}
					hi := lo + shardSize
					if hi > len(servers) {
						hi = len(servers)
					}
					for i := lo; i < hi; i++ {
						files[i] = g.generateOne(servers[i], interDC)
					}
				}
			}()
		}
		wg.Wait()
	}
	stats.Wall = time.Since(wallStart)

	out := make(map[topology.ServerID]*pinglist.File, len(servers))
	for i, id := range servers {
		out[id] = files[i]
	}
	return out, stats, nil
}

type generator struct {
	top     *topology.Topology
	cfg     GeneratorConfig
	version string
	now     time.Time
}

// generateOne computes a single server's pinglist. It reads only the
// immutable topology, configuration, and inter-DC selection, so any number
// of workers may call it concurrently for disjoint servers.
func (g *generator) generateOne(id topology.ServerID, interDC map[topology.ServerID]bool) *pinglist.File {
	s := *g.top.Server(id)
	f := &pinglist.File{Server: s.Name, Version: g.version, Generated: g.now}
	g.intraPodPeers(f, &s)
	g.intraDCPeers(f, &s)
	g.interDCPeers(f, &s, interDC)
	g.vipPeers(f, &s)
	return f
}

func (g *generator) addPeer(f *pinglist.File, addr string, port uint16, class probe.Class, proto probe.Proto, qos probe.QoS, interval time.Duration, payload int) {
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
func (g *generator) expand(f *pinglist.File, addr string, class probe.Class, interval time.Duration) {
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
func (g *generator) intraPodPeers(f *pinglist.File, s *topology.Server) {
	pod := g.top.PodOf(s.ID)
	for _, peer := range pod.Servers {
		if peer == s.ID {
			continue
		}
		g.expand(f, g.top.Server(peer).Addr.String(), probe.IntraPod, g.cfg.IntraPodInterval)
	}
}

// intraDCPeers: the ToR-level complete graph. For every other ToR in the
// DC, server i under this ToR pings server i under that ToR (if that rack
// has a server with the same rank). The peer set is stride-sampled if it
// would blow the per-server cap.
func (g *generator) intraDCPeers(f *pinglist.File, s *topology.Server) {
	dc := &g.top.DCs[s.DC]
	var targets []topology.ServerID
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
	if len(targets) > budget {
		targets = strideSample(targets, budget)
	}
	for _, id := range targets {
		g.expand(f, g.top.Server(id).Addr.String(), probe.IntraDC, g.cfg.IntraDCInterval)
	}
}

// interDCPeers: the DC-level complete graph among selected servers.
func (g *generator) interDCPeers(f *pinglist.File, s *topology.Server, sel map[topology.ServerID]bool) {
	if !sel[s.ID] {
		return
	}
	for _, peer := range g.top.Servers() {
		if peer.DC == s.DC || !sel[peer.ID] {
			continue
		}
		g.expand(f, peer.Addr.String(), probe.InterDC, g.cfg.InterDCInterval)
	}
}

// vipPeers appends VIP monitoring targets to the designated probers.
func (g *generator) vipPeers(f *pinglist.File, s *topology.Server) {
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
func interDCSelection(top *topology.Topology, perPodset int) map[topology.ServerID]bool {
	sel := make(map[topology.ServerID]bool)
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

// strideSample keeps n elements of s at a uniform stride, deterministically.
func strideSample(s []topology.ServerID, n int) []topology.ServerID {
	if n >= len(s) {
		return s
	}
	out := make([]topology.ServerID, 0, n)
	step := float64(len(s)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, s[int(float64(i)*step)])
	}
	return out
}
