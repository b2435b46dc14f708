// Package topology models the data center network structure Pingmesh runs
// on (§2.1 of the paper): servers connect to a top-of-rack (ToR) switch to
// form a Pod; tens of ToRs connect to a tier of Leaf switches to form a
// Podset; Podsets connect through a tier of Spine switches; data centers
// interconnect over an inter-DC network.
//
// The topology is the single input of the Pingmesh Generator and of the
// network simulator, so it is immutable after construction.
package topology

import (
	"fmt"
	"net/netip"
)

// ServerID is a fleet-global dense index of a server.
type ServerID int32

// SwitchID is a fleet-global dense index of a switch.
type SwitchID int32

// Tier identifies the layer a switch occupies in the Clos fabric.
type Tier int

// Switch tiers, bottom up.
const (
	TierToR Tier = iota
	TierLeaf
	TierSpine
)

// String returns the lowercase tier name.
func (t Tier) String() string {
	switch t {
	case TierToR:
		return "tor"
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Server is one machine in the fleet.
type Server struct {
	ID     ServerID
	Name   string // e.g. "DC1-ps02-pod05-s13"
	Addr   netip.Addr
	DC     int // index into Topology.DCs
	Podset int // index within the DC
	Pod    int // index within the podset
	Rank   int // index within the pod; the intra-DC algorithm pairs equal ranks
}

// Switch is one network device.
type Switch struct {
	ID     SwitchID
	Name   string // e.g. "DC1-ps02-tor05"
	Tier   Tier
	DC     int
	Podset int // -1 for spines (they serve the whole DC)
	Pod    int // -1 except for ToRs
}

// Pod is a rack: one ToR plus the servers cabled to it.
type Pod struct {
	Index   int
	ToR     SwitchID
	Servers []ServerID
}

// Podset groups pods that share a set of Leaf switches.
type Podset struct {
	Index  int
	Leaves []SwitchID
	Pods   []Pod
}

// Servers returns the IDs of every server in the podset, in pod order.
func (p *Podset) Servers() []ServerID {
	var ids []ServerID
	for i := range p.Pods {
		ids = append(ids, p.Pods[i].Servers...)
	}
	return ids
}

// DC is one data center.
type DC struct {
	Name    string
	Index   int
	Podsets []Podset
	Spines  []SwitchID
}

// Servers returns the IDs of every server in the DC, in pod order.
func (d *DC) Servers() []ServerID {
	var ids []ServerID
	for i := range d.Podsets {
		for j := range d.Podsets[i].Pods {
			ids = append(ids, d.Podsets[i].Pods[j].Servers...)
		}
	}
	return ids
}

// Topology is an immutable multi-DC fleet.
type Topology struct {
	DCs      []DC
	servers  []Server
	switches []Switch
	byName   map[string]ServerID
}

// NumServers returns the number of servers in the fleet.
func (t *Topology) NumServers() int { return len(t.servers) }

// NumSwitches returns the number of switches in the fleet.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// Server returns the server with the given ID.
func (t *Topology) Server(id ServerID) *Server {
	return &t.servers[id]
}

// Switch returns the switch with the given ID.
func (t *Topology) Switch(id SwitchID) *Switch {
	return &t.switches[id]
}

// Servers returns all servers. Callers must not mutate the result.
func (t *Topology) Servers() []Server { return t.servers }

// Switches returns all switches. Callers must not mutate the result.
func (t *Topology) Switches() []Switch { return t.switches }

// ServerByAddr looks a server up by IP address. It is arithmetic on Build's
// address plan, not a hash lookup: 10.<dc>.<x>.<y> is server number x.y
// (from 1) of DC dc, and DC dc's servers have consecutive IDs.
func (t *Topology) ServerByAddr(a netip.Addr) (ServerID, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	host := int(b[2])<<8 | int(b[3])
	if b[0] != 10 || int(b[1]) >= len(t.DCs) || host == 0 {
		return 0, false
	}
	id := int(t.DCs[b[1]].Podsets[0].Pods[0].Servers[0]) + host - 1
	if id >= len(t.servers) || t.servers[id].Addr != a {
		return 0, false
	}
	return ServerID(id), true
}

// ServerByAddrString looks a server up by the textual form of its IP
// address (the form pinglists and probe records carry).
func (t *Topology) ServerByAddrString(s string) (ServerID, bool) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, false
	}
	return t.ServerByAddr(a)
}

// ServerByName looks a server up by host name.
func (t *Topology) ServerByName(name string) (ServerID, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// PodOf returns the pod containing server id.
func (t *Topology) PodOf(id ServerID) *Pod {
	s := &t.servers[id]
	return &t.DCs[s.DC].Podsets[s.Podset].Pods[s.Pod]
}

// PodsetOf returns the podset containing server id.
func (t *Topology) PodsetOf(id ServerID) *Podset {
	s := &t.servers[id]
	return &t.DCs[s.DC].Podsets[s.Podset]
}

// ToROf returns the ToR switch of server id.
func (t *Topology) ToROf(id ServerID) SwitchID {
	return t.PodOf(id).ToR
}

// SamePod reports whether two servers share a ToR.
func (t *Topology) SamePod(a, b ServerID) bool {
	sa, sb := &t.servers[a], &t.servers[b]
	return sa.DC == sb.DC && sa.Podset == sb.Podset && sa.Pod == sb.Pod
}

// SamePodset reports whether two servers share a podset.
func (t *Topology) SamePodset(a, b ServerID) bool {
	sa, sb := &t.servers[a], &t.servers[b]
	return sa.DC == sb.DC && sa.Podset == sb.Podset
}

// SameDC reports whether two servers are in the same data center.
func (t *Topology) SameDC(a, b ServerID) bool {
	return t.servers[a].DC == t.servers[b].DC
}

// ToRs returns every ToR switch ID in the given DC, podset-major order.
func (t *Topology) ToRs(dc int) []SwitchID {
	var ids []SwitchID
	for i := range t.DCs[dc].Podsets {
		for j := range t.DCs[dc].Podsets[i].Pods {
			ids = append(ids, t.DCs[dc].Podsets[i].Pods[j].ToR)
		}
	}
	return ids
}

// Validate checks structural invariants: dense IDs, consistent back
// references, unique names and addresses, and non-empty tiers wherever a
// podset has more than one pod. It returns the first violation found.
func (t *Topology) Validate() error {
	if len(t.DCs) == 0 {
		return fmt.Errorf("topology: no data centers")
	}
	seenAddr := make(map[netip.Addr]bool, len(t.servers))
	seenName := make(map[string]bool, len(t.servers))
	for i := range t.servers {
		s := &t.servers[i]
		if int(s.ID) != i {
			return fmt.Errorf("topology: server %d has ID %d", i, s.ID)
		}
		if s.DC < 0 || s.DC >= len(t.DCs) {
			return fmt.Errorf("topology: server %s references DC %d", s.Name, s.DC)
		}
		dc := &t.DCs[s.DC]
		if s.Podset < 0 || s.Podset >= len(dc.Podsets) {
			return fmt.Errorf("topology: server %s references podset %d", s.Name, s.Podset)
		}
		ps := &dc.Podsets[s.Podset]
		if s.Pod < 0 || s.Pod >= len(ps.Pods) {
			return fmt.Errorf("topology: server %s references pod %d", s.Name, s.Pod)
		}
		pod := &ps.Pods[s.Pod]
		if s.Rank < 0 || s.Rank >= len(pod.Servers) || pod.Servers[s.Rank] != s.ID {
			return fmt.Errorf("topology: server %s rank %d not reflected in pod", s.Name, s.Rank)
		}
		if seenAddr[s.Addr] {
			return fmt.Errorf("topology: duplicate address %v", s.Addr)
		}
		seenAddr[s.Addr] = true
		if seenName[s.Name] {
			return fmt.Errorf("topology: duplicate name %q", s.Name)
		}
		seenName[s.Name] = true
	}
	for i := range t.switches {
		sw := &t.switches[i]
		if int(sw.ID) != i {
			return fmt.Errorf("topology: switch %d has ID %d", i, sw.ID)
		}
		if sw.DC < 0 || sw.DC >= len(t.DCs) {
			return fmt.Errorf("topology: switch %s references DC %d", sw.Name, sw.DC)
		}
	}
	for di := range t.DCs {
		dc := &t.DCs[di]
		if dc.Index != di {
			return fmt.Errorf("topology: DC %q index %d at position %d", dc.Name, dc.Index, di)
		}
		if len(dc.Podsets) == 0 {
			return fmt.Errorf("topology: DC %q has no podsets", dc.Name)
		}
		if len(dc.Podsets) > 1 && len(dc.Spines) == 0 {
			return fmt.Errorf("topology: DC %q has %d podsets but no spines", dc.Name, len(dc.Podsets))
		}
		for pi := range dc.Podsets {
			ps := &dc.Podsets[pi]
			if ps.Index != pi {
				return fmt.Errorf("topology: DC %q podset index %d at position %d", dc.Name, ps.Index, pi)
			}
			if len(ps.Pods) == 0 {
				return fmt.Errorf("topology: DC %q podset %d has no pods", dc.Name, pi)
			}
			if len(ps.Pods) > 1 && len(ps.Leaves) == 0 {
				return fmt.Errorf("topology: DC %q podset %d has %d pods but no leaves", dc.Name, pi, len(ps.Pods))
			}
			for qi := range ps.Pods {
				pod := &ps.Pods[qi]
				if pod.Index != qi {
					return fmt.Errorf("topology: DC %q podset %d pod index %d at position %d", dc.Name, pi, pod.Index, qi)
				}
				if len(pod.Servers) == 0 {
					return fmt.Errorf("topology: DC %q podset %d pod %d has no servers", dc.Name, pi, qi)
				}
				tor := t.Switch(pod.ToR)
				if tor.Tier != TierToR || tor.DC != di || tor.Podset != pi || tor.Pod != qi {
					return fmt.Errorf("topology: pod %s/%d/%d ToR back-reference mismatch", dc.Name, pi, qi)
				}
			}
		}
	}
	return nil
}
