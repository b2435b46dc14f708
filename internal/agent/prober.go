package agent

import (
	"context"
	"net"
	"strconv"
	"time"

	"pingmesh/internal/netlib"
	"pingmesh/internal/probe"
)

// RealProber probes over the actual network with the netlib probe
// protocol: TCP handshake timing plus optional payload echo, or HTTP GETs.
type RealProber struct {
	// Timeout bounds each probe phase. Default 25s (above the last SYN
	// retransmission, so inflated handshakes are measured, not aborted).
	Timeout time.Duration

	tcp  netlib.TCPProber
	http netlib.HTTPProber
}

// NewRealProber returns a prober for real networks.
func NewRealProber(timeout time.Duration) *RealProber {
	return &RealProber{
		Timeout: timeout,
		tcp:     netlib.TCPProber{Timeout: timeout},
		http:    netlib.HTTPProber{Timeout: timeout},
	}
}

// Probe implements Prober.
func (p *RealProber) Probe(ctx context.Context, t Target) (Outcome, error) {
	addr := net.JoinHostPort(t.Addr.String(), strconv.Itoa(int(t.Port)))
	var res netlib.Result
	var err error
	switch t.Proto {
	case probe.HTTP:
		res, err = p.http.Probe(ctx, addr, t.PayloadLen)
	default:
		res, err = p.tcp.Probe(ctx, addr, t.PayloadLen)
	}
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{ConnectRTT: res.ConnectRTT, PayloadRTT: res.PayloadRTT, SrcPort: res.SrcPort}, nil
}
