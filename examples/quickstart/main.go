// Quickstart: a miniature real-network Pingmesh deployment on loopback.
//
// It starts a Pingmesh Controller over a small two-DC topology, launches
// probe echo servers and two real agents on 127.0.0.1, lets them fetch
// their pinglists over HTTP and probe each other through actual TCP
// sockets, then prints the latency summaries from the agents' perf
// counters.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"time"

	"pingmesh"
	"pingmesh/internal/agent"
	"pingmesh/internal/controller"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/probe"
)

func main() {
	// 1. The controller: generates a pinglist per server and serves them
	// over the RESTful web API.
	top := pingmesh.SmallTestbed()
	ctrl, err := pingmesh.NewController(top, pingmesh.DefaultGeneratorConfig())
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctrlSrv := &http.Server{Handler: ctrl.Handler()}
	go ctrlSrv.Serve(ln)
	defer ctrlSrv.Close()
	ctrlURL := "http://" + ln.Addr().String()
	fmt.Printf("controller: %d pinglists at %s\n", ctrl.PinglistCount(), ctrlURL)

	// 2. Probe servers: on a real deployment every server runs one. Here
	// two loopback ports stand in for two servers.
	ps1, err := pingmesh.NewProbeServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ps1.Close()
	ps2, err := pingmesh.NewProbeServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ps2.Close()

	// 3. Agents. The generated pinglists point at the topology's 10.x
	// addresses, which do not exist on loopback — so this quickstart hands
	// each agent a local pinglist targeting the other's real probe server.
	// (On a real network agents use the controller URL directly; see
	// TestRealComponentsLoopback and cmd/pingmesh-agent.)
	loopback := netip.MustParseAddr("127.0.0.1")
	mkList := func(name string, peer *pingmesh.ProbeServer) *pinglist.File {
		return &pinglist.File{
			Server:  name,
			Version: ctrl.Version(),
			Peers: []pinglist.Peer{{
				Addr:        "127.0.0.1",
				Port:        peer.Port(),
				Class:       probe.IntraPod.String(),
				Proto:       probe.TCP.String(),
				QoS:         probe.QoSHigh.String(),
				IntervalSec: int(pinglist.MinProbeInterval / time.Second),
				PayloadLen:  512,
			}},
		}
	}
	runAgent := func(ctx context.Context, name string, peer *pingmesh.ProbeServer) *pingmesh.Agent {
		a, err := agent.New(agent.Config{
			ServerName: name,
			SourceAddr: loopback,
			Controller: staticList{mkList(name, peer)},
			Prober:     agent.NewRealProber(5 * time.Second),
		})
		if err != nil {
			log.Fatal(err)
		}
		go a.Run(ctx)
		return a
	}

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()
	a1 := runAgent(ctx, "server-1", ps2)
	a2 := runAgent(ctx, "server-2", ps1)

	// Also verify the real controller path end to end.
	client := &controller.Client{BaseURL: ctrlURL}
	f, err := client.Fetch(ctx, top.Server(0).Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched pinglist for %s over HTTP: %d peers, version %s\n",
		f.Server, len(f.Peers), f.Version)

	// 4. Let the agents probe for a couple of rounds (the hard-coded
	// minimum interval between probes of a pair is 10s).
	fmt.Println("probing for ~21s (min probe interval is 10s)...")
	time.Sleep(21 * time.Second)
	cancel()

	for _, a := range []*pingmesh.Agent{a1, a2} {
		snap := a.Metrics().Snapshot()
		rtt := snap.Histograms["agent.rtt.intra-pod"]
		payload := snap.Histograms["agent.rtt_payload.intra-pod"]
		fmt.Printf("agent probes=%d ok=%d failed=%d rtt{p50=%v p99=%v} payload_rtt{p50=%v} drop_rate=%.1e\n",
			snap.Counters["agent.probes_total"],
			snap.Counters["agent.probes_ok"],
			snap.Counters["agent.probes_failed"],
			rtt.P50, rtt.P99, payload.P50, a.DropRate())
	}
}

type staticList struct{ f *pinglist.File }

func (s staticList) Fetch(ctx context.Context, server string) (*pinglist.File, error) {
	return s.f, nil
}
