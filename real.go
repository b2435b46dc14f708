package pingmesh

import (
	"net/netip"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/controller"
	"pingmesh/internal/core"
	"pingmesh/internal/netlib"
	"pingmesh/internal/topology"
)

// Real-network entry points: the same controller and agent implementations
// the simulator exercises, wired to real sockets. See examples/quickstart
// for a complete loopback deployment.

// NewController builds a Pingmesh Controller over a topology. Serve its
// Handler() with net/http (typically several replicas behind an SLB VIP).
func NewController(top *Topology, cfg GeneratorConfig) (*controller.Controller, error) {
	return controller.New(top, cfg, nil)
}

// Re-exports for real deployments.
type (
	// Agent is one server's Pingmesh Agent.
	Agent = agent.Agent
	// ProbeServer answers TCP probes (every Pingmesh server runs one).
	ProbeServer = netlib.TCPServer
)

// NewProbeServer starts the echo server agents probe against, e.g. on
// ":8765". Every Pingmesh server runs one; the agent keeps answering
// probes even when it fails closed.
func NewProbeServer(addr string) (*ProbeServer, error) {
	return netlib.NewTCPServer(addr)
}

// NewRealAgent builds an agent that probes over the real network and polls
// the controller at controllerURL for its pinglist.
func NewRealAgent(serverName string, sourceAddr netip.Addr, controllerURL string, uploader agent.Uploader) (*Agent, error) {
	return agent.New(agent.Config{
		ServerName: serverName,
		SourceAddr: sourceAddr,
		Controller: &controller.Client{BaseURL: controllerURL},
		Prober:     agent.NewRealProber(25 * time.Second),
		Uploader:   uploader,
	})
}

// BuildTopology generates a Topology from a spec.
func BuildTopology(spec TopologySpec) (*Topology, error) {
	return topology.Build(spec)
}

// SmallTestbed returns a compact two-DC topology for examples and tests.
func SmallTestbed() *Topology { return topology.SmallTestbed() }

// DefaultGeneratorConfig returns the production-like pinglist generation
// defaults.
func DefaultGeneratorConfig() GeneratorConfig { return core.DefaultGeneratorConfig() }
