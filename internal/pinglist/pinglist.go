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

// ParsedClass returns the probe.Class of the peer.
func (p *Peer) ParsedClass() (probe.Class, error) { return probe.ParseClass(p.Class) }

// ParsedProto returns the probe.Proto of the peer.
func (p *Peer) ParsedProto() (probe.Proto, error) { return probe.ParseProto(p.Proto) }

// ParsedQoS returns the probe.QoS of the peer.
func (p *Peer) ParsedQoS() (probe.QoS, error) { return probe.ParseQoS(p.QoS) }

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

// Validate checks that every peer parses: addresses, classes, protocols,
// QoS names, positive intervals, non-negative payload sizes. Unmarshal
// checks the same while it decodes.
func (f *File) Validate() error {
	if f.Server == "" {
		return fmt.Errorf("pinglist: missing server attribute")
	}
	for i := range f.Peers {
		p := &f.Peers[i]
		if _, err := netip.ParseAddr(p.Addr); err != nil {
			return fmt.Errorf("pinglist: peer %d: bad addr %q", i, p.Addr)
		}
		if p.Port == 0 {
			return fmt.Errorf("pinglist: peer %d: zero port", i)
		}
		if _, err := p.ParsedClass(); err != nil {
			return fmt.Errorf("pinglist: peer %d: %w", i, err)
		}
		if _, err := p.ParsedProto(); err != nil {
			return fmt.Errorf("pinglist: peer %d: %w", i, err)
		}
		if _, err := p.ParsedQoS(); err != nil {
			return fmt.Errorf("pinglist: peer %d: %w", i, err)
		}
		if p.IntervalSec <= 0 {
			return fmt.Errorf("pinglist: peer %d: non-positive interval", i)
		}
		if p.PayloadLen < 0 {
			return fmt.Errorf("pinglist: peer %d: negative payload", i)
		}
	}
	return nil
}
