package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"pingmesh/internal/agent"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// SimProber is an agent.Prober over the simulated network, letting the
// full agent stack run against netsim instead of real sockets. Each probe
// uses a fresh source port, like the real prober, so ECMP paths vary per
// probe.
type SimProber struct {
	// Net is the simulated fabric.
	Net *netsim.Network
	// Src is the simulated server this agent runs on.
	Src topology.ServerID
	// Clock stamps probe start times (drives time-varying load profiles).
	Clock simclock.Clock
	// Seed makes the prober deterministic; agents get distinct seeds.
	Seed uint64

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
	port uint16
}

func (p *SimProber) init() {
	p.once.Do(func() {
		p.rng = rand.New(rand.NewPCG(p.Seed, p.Seed^0x9e3779b97f4a7c15))
		p.port = 32768
	})
}

// Probe implements agent.Prober.
func (p *SimProber) Probe(ctx context.Context, t agent.Target) (agent.Outcome, error) {
	p.init()
	if err := ctx.Err(); err != nil {
		return agent.Outcome{}, err
	}
	dst, ok := p.Net.Topology().ServerByAddr(t.Addr)
	if !ok {
		return agent.Outcome{}, fmt.Errorf("fleet: no route to host %v", t.Addr)
	}
	p.mu.Lock()
	p.port++
	if p.port < 32768 {
		p.port = 32768
	}
	srcPort := p.port
	payload := t.PayloadLen
	if t.Proto == probe.HTTP && payload == 0 {
		payload = 128 // an HTTP probe always carries a request/response
	}
	res := p.Net.Probe(netsim.ProbeSpec{
		Src:        p.Src,
		Dst:        dst,
		SrcPort:    srcPort,
		DstPort:    t.Port,
		Proto:      t.Proto,
		QoS:        t.QoS,
		PayloadLen: payload,
		Start:      p.Clock.Now(),
	}, p.rng)
	p.mu.Unlock()
	if res.Err != "" {
		return agent.Outcome{SrcPort: srcPort}, errors.New(res.Err)
	}
	return agent.Outcome{ConnectRTT: res.RTT, PayloadRTT: res.PayloadRTT, SrcPort: srcPort}, nil
}
