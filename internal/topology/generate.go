package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
)

// DCSpec describes one data center to generate.
type DCSpec struct {
	// Name of the data center, e.g. "DC1". Must be unique in the fleet.
	Name string `json:"name"`
	// Podsets is the number of podsets.
	Podsets int `json:"podsets"`
	// PodsPerPodset is the number of pods (racks) per podset. The paper's
	// podsets contain around 20 pods.
	PodsPerPodset int `json:"podsPerPodset"`
	// ServersPerPod is the number of servers under each ToR (paper: ~40).
	ServersPerPod int `json:"serversPerPod"`
	// LeavesPerPodset is the number of Leaf switches per podset (paper: 2-8).
	LeavesPerPodset int `json:"leavesPerPodset"`
	// Spines is the number of Spine switches in the DC (paper: tens to
	// hundreds).
	Spines int `json:"spines"`
}

// Servers returns the number of servers this spec generates.
func (s DCSpec) Servers() int { return s.Podsets * s.PodsPerPodset * s.ServersPerPod }

func (s DCSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("topology: DC spec with empty name")
	}
	if s.Podsets <= 0 || s.PodsPerPodset <= 0 || s.ServersPerPod <= 0 {
		return fmt.Errorf("topology: DC %s: podsets, pods and servers must be positive", s.Name)
	}
	if s.PodsPerPodset > 1 && s.LeavesPerPodset <= 0 {
		return fmt.Errorf("topology: DC %s: multiple pods per podset require leaves", s.Name)
	}
	if s.Podsets > 1 && s.Spines <= 0 {
		return fmt.Errorf("topology: DC %s: multiple podsets require spines", s.Name)
	}
	if s.Servers() > 65000 {
		return fmt.Errorf("topology: DC %s has %d servers, exceeding the 10.dc.x.y addressing plan", s.Name, s.Servers())
	}
	return nil
}

// Spec describes a whole fleet to generate.
type Spec struct {
	DCs []DCSpec `json:"dcs"`
}

// Build generates a Topology from the spec. Server addresses follow a
// 10.dc.x.y plan where x.y is a flat per-DC server counter from 1, so a DC
// can hold up to 65000 servers; ServerByAddr inverts the plan by arithmetic.
func Build(spec Spec) (*Topology, error) {
	if len(spec.DCs) == 0 {
		return nil, fmt.Errorf("topology: spec has no DCs")
	}
	if len(spec.DCs) > 200 {
		return nil, fmt.Errorf("topology: more than 200 DCs exceeds the addressing plan")
	}
	t := &Topology{byName: make(map[string]ServerID)}
	names := make(map[string]bool)
	for di, ds := range spec.DCs {
		if err := ds.validate(); err != nil {
			return nil, err
		}
		if names[ds.Name] {
			return nil, fmt.Errorf("topology: duplicate DC name %q", ds.Name)
		}
		names[ds.Name] = true
		dc := DC{Name: ds.Name, Index: di}
		hostNum := 1 // per-DC flat counter; starts at 1 to skip 10.d.0.0
		for psi := 0; psi < ds.Podsets; psi++ {
			ps := Podset{Index: psi}
			for li := 0; li < ds.LeavesPerPodset; li++ {
				ps.Leaves = append(ps.Leaves, t.addSwitch(Switch{
					Name: fmt.Sprintf("%s-ps%02d-leaf%02d", ds.Name, psi, li),
					Tier: TierLeaf, DC: di, Podset: psi, Pod: -1,
				}))
			}
			for qi := 0; qi < ds.PodsPerPodset; qi++ {
				pod := Pod{Index: qi}
				pod.ToR = t.addSwitch(Switch{
					Name: fmt.Sprintf("%s-ps%02d-tor%02d", ds.Name, psi, qi),
					Tier: TierToR, DC: di, Podset: psi, Pod: qi,
				})
				for si := 0; si < ds.ServersPerPod; si++ {
					addr := netip.AddrFrom4([4]byte{10, byte(di), byte(hostNum >> 8), byte(hostNum)})
					hostNum++
					pod.Servers = append(pod.Servers, t.addServer(Server{
						Name: fmt.Sprintf("%s-ps%02d-pod%02d-s%02d", ds.Name, psi, qi, si),
						Addr: addr,
						DC:   di, Podset: psi, Pod: qi, Rank: si,
					}))
				}
				ps.Pods = append(ps.Pods, pod)
			}
			dc.Podsets = append(dc.Podsets, ps)
		}
		for si := 0; si < ds.Spines; si++ {
			dc.Spines = append(dc.Spines, t.addSwitch(Switch{
				Name: fmt.Sprintf("%s-spine%03d", ds.Name, si),
				Tier: TierSpine, DC: di, Podset: -1, Pod: -1,
			}))
		}
		t.DCs = append(t.DCs, dc)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generated fleet failed validation: %w", err)
	}
	return t, nil
}

func (t *Topology) addServer(s Server) ServerID {
	s.ID = ServerID(len(t.servers))
	t.servers = append(t.servers, s)
	t.byName[s.Name] = s.ID
	return s.ID
}

func (t *Topology) addSwitch(sw Switch) SwitchID {
	sw.ID = SwitchID(len(t.switches))
	t.switches = append(t.switches, sw)
	return sw.ID
}

// SmallTestbed returns a compact two-DC fleet useful in examples and tests:
// each DC has 2 podsets x 3 pods x 4 servers (24 servers per DC).
func SmallTestbed() *Topology {
	t, err := Build(Spec{DCs: []DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		panic(err) // static spec cannot fail
	}
	return t
}

// WriteSpec encodes the spec as JSON, the on-disk format the Pingmesh
// Controller reads its network graph from.
func WriteSpec(w io.Writer, spec Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// ReadSpec decodes a JSON spec.
func ReadSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("topology: decoding spec: %w", err)
	}
	return spec, nil
}
