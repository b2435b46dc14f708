// Package pinglist defines the pinglist file — the only interface between
// the Pingmesh Controller and the Pingmesh Agents (§3.3, §6.2). A pinglist
// is an XML document listing the peers one server must probe and the probe
// parameters. Agents fetch their pinglist over a RESTful web API and never
// receive pushes; the file format is deliberately the whole coupling
// surface between control plane and agents.
package pinglist

import (
	"encoding/xml"
	"fmt"
	"net/netip"
	"time"

	"pingmesh/internal/probe"
)

// Peer is one probing target.
type Peer struct {
	// Addr is the peer's IP address (or a VIP for VIP monitoring).
	Addr string `xml:"addr,attr"`
	// Port is the TCP/HTTP port to probe.
	Port uint16 `xml:"port,attr"`
	// Class labels which complete graph this peer belongs to.
	Class string `xml:"class,attr"`
	// Proto is "tcp" or "http".
	Proto string `xml:"proto,attr"`
	// QoS is "high" or "low".
	QoS string `xml:"qos,attr"`
	// IntervalSec is the time between successive probes to this peer.
	IntervalSec int `xml:"interval,attr"`
	// PayloadLen is the echo payload size in bytes; 0 probes with bare
	// SYN/SYN-ACK.
	PayloadLen int `xml:"payload,attr"`
}

// MinProbeInterval is the hard floor on the interval between two probes of
// one source-destination pair (§3.4.2), in the generator and in the agent.
const MinProbeInterval = 10 * time.Second

// Interval returns the probing interval as a duration.
func (p *Peer) Interval() time.Duration { return time.Duration(p.IntervalSec) * time.Second }

// File is one server's pinglist.
type File struct {
	XMLName xml.Name `xml:"Pinglist"`
	// Server is the host name the file is addressed to.
	Server string `xml:"server,attr"`
	// Generated is when the controller computed the file.
	Generated time.Time `xml:"generated,attr"`
	// Version identifies the generation run; agents can skip re-applying
	// an unchanged version.
	Version string `xml:"version,attr"`
	Peers   []Peer `xml:"Peer"`
}

// Marshal renders the file as XML: a header line, one line per peer and a
// footer line, the bytes xml.MarshalIndent would produce. The result has
// no spare capacity, so it can be retained as is.
func Marshal(f *File) ([]byte, error) {
	generated, err := f.Generated.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("pinglist: marshal: %w", err)
	}
	return appendFile(make([]byte, 0, fileSize(f, generated)), f, generated), nil
}

// Validate checks that every peer parses (Peer.Parse). Unmarshal checks the
// same while it decodes.
func (f *File) Validate() error {
	if f.Server == "" {
		return fmt.Errorf("pinglist: missing server attribute")
	}
	for i := range f.Peers {
		if _, _, _, _, err := f.Peers[i].Parse(); err != nil {
			return fmt.Errorf("pinglist: peer %d: %w", i, err)
		}
	}
	return nil
}

// Parse returns the peer's address, class, protocol and QoS in their probe
// types, or why the peer is invalid: a field that does not parse, a zero
// port, a non-positive interval or a negative payload size.
func (p *Peer) Parse() (addr netip.Addr, cls probe.Class, proto probe.Proto, qos probe.QoS, err error) {
	if addr, err = netip.ParseAddr(p.Addr); err != nil {
		err = fmt.Errorf("bad addr %q", p.Addr)
	} else if p.Port == 0 || p.IntervalSec <= 0 || p.PayloadLen < 0 {
		err = fmt.Errorf("port %d, interval %d or payload %d out of range", p.Port, p.IntervalSec, p.PayloadLen)
	} else if cls, err = probe.ParseClass(p.Class); err == nil {
		if proto, err = probe.ParseProto(p.Proto); err == nil {
			qos, err = probe.ParseQoS(p.QoS)
		}
	}
	return addr, cls, proto, qos, err
}
