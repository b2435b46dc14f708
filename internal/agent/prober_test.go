package agent

import (
	"context"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"pingmesh/internal/netlib"
	"pingmesh/internal/probe"
)

func TestRealProberTCP(t *testing.T) {
	srv, err := netlib.NewTCPServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := NewRealProber(5 * time.Second)
	out, err := p.Probe(context.Background(), Target{
		Addr:       netip.MustParseAddr("127.0.0.1"),
		Port:       srv.Port(),
		Proto:      probe.TCP,
		PayloadLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ConnectRTT <= 0 || out.PayloadRTT <= 0 || out.SrcPort == 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestRealProberHTTP(t *testing.T) {
	srv := httptest.NewServer(netlib.HTTPHandler())
	defer srv.Close()
	addr := srv.Listener.Addr().String()
	host, portStr, _ := strings.Cut(addr, ":")
	port, _ := strconv.Atoi(portStr)
	p := NewRealProber(5 * time.Second)
	out, err := p.Probe(context.Background(), Target{
		Addr:       netip.MustParseAddr(host),
		Port:       uint16(port),
		Proto:      probe.HTTP,
		PayloadLen: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ConnectRTT <= 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestRealProberRejectsOversizedPayload(t *testing.T) {
	p := NewRealProber(time.Second)
	_, err := p.Probe(context.Background(), Target{
		Addr:       netip.MustParseAddr("127.0.0.1"),
		Port:       9,
		PayloadLen: netlib.MaxPayload + 1,
	})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestTruncateErr(t *testing.T) {
	long := strings.Repeat("x", 500)
	if got := truncateErr(errString(long)); len(got) != 120 {
		t.Fatalf("truncateErr len = %d", len(got))
	}
	if got := truncateErr(errString("short")); got != "short" {
		t.Fatalf("truncateErr = %q", got)
	}
}

type errString string

func (e errString) Error() string { return string(e) }
