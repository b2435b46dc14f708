package analysis

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// PodRef identifies a pod for grouping and heatmaps.
type PodRef struct {
	DC, Podset, Pod int
}

// String encodes the ref as "d<dc>.s<podset>.p<pod>".
func (p PodRef) String() string {
	return string(p.AppendTo(make([]byte, 0, 16)))
}

// AppendTo appends the String encoding to dst without allocating: the
// KeyBytes building block.
func (p PodRef) AppendTo(dst []byte) []byte {
	dst = append(dst, 'd')
	dst = strconv.AppendInt(dst, int64(p.DC), 10)
	dst = append(dst, '.', 's')
	dst = strconv.AppendInt(dst, int64(p.Podset), 10)
	dst = append(dst, '.', 'p')
	dst = strconv.AppendInt(dst, int64(p.Pod), 10)
	return dst
}

// ParsePodRef decodes the String form. It allocates nothing: heatmaps parse
// every pod-pair key of every hourly cycle.
func ParsePodRef(s string) (PodRef, error) {
	d, rest, ok1 := strings.Cut(s, ".")
	ps, pod, ok2 := strings.Cut(rest, ".")
	if !ok1 || !ok2 || strings.Contains(pod, ".") || !strings.HasPrefix(d, "d") ||
		!strings.HasPrefix(ps, "s") || !strings.HasPrefix(pod, "p") {
		return PodRef{}, fmt.Errorf("analysis: bad pod ref %q", s)
	}
	dc, err1 := strconv.Atoi(d[1:])
	psi, err2 := strconv.Atoi(ps[1:])
	podi, err3 := strconv.Atoi(pod[1:])
	if err1 != nil || err2 != nil || err3 != nil {
		return PodRef{}, fmt.Errorf("analysis: bad pod ref %q", s)
	}
	return PodRef{DC: dc, Podset: psi, Pod: podi}, nil
}

// Keyer maps probe records to SLA scope keys by resolving their addresses
// against the topology. Records whose source is unknown to the topology
// (e.g. VIP targets) yield ok=false.
//
// Every keyer has the scope.Job.KeyBytes form: it appends the group key to
// dst instead of returning a fresh string, so with the engine's group-key
// interning per-record grouping allocates nothing.
type Keyer struct {
	Top *topology.Topology
}

func (k *Keyer) server(a netip.Addr) (*topology.Server, bool) {
	id, ok := k.Top.ServerByAddr(a)
	if !ok {
		return nil, false
	}
	return k.Top.Server(id), true
}

// SplitPodPair decodes an AppendPodPair key.
func SplitPodPair(key string) (src, dst PodRef, err error) {
	a, b, ok := strings.Cut(key, "|")
	if !ok || strings.Contains(b, "|") {
		return PodRef{}, PodRef{}, fmt.Errorf("analysis: bad pod pair %q", key)
	}
	if src, err = ParsePodRef(a); err != nil {
		return
	}
	dst, err = ParsePodRef(b)
	return
}

// AppendSrcDC keys by source data center name (per-DC SLA).
func (k *Keyer) AppendSrcDC(dst []byte, r *probe.Record) ([]byte, bool) {
	s, ok := k.server(r.Src)
	if !ok {
		return dst, false
	}
	return append(dst, k.Top.DCs[s.DC].Name...), true
}

// AppendPodPair keys by "<source pod>|<destination pod>": the grouping behind
// the visualization heatmaps of §6.3. Both endpoints must resolve.
func (k *Keyer) AppendPodPair(dst []byte, r *probe.Record) ([]byte, bool) {
	src, ok := k.server(r.Src)
	if !ok {
		return dst, false
	}
	dst2, ok := k.server(r.Dst)
	if !ok {
		return dst, false
	}
	b := PodRef{DC: src.DC, Podset: src.Podset, Pod: src.Pod}.AppendTo(dst)
	b = append(b, '|')
	b = PodRef{DC: dst2.DC, Podset: dst2.Podset, Pod: dst2.Pod}.AppendTo(b)
	return b, true
}

// AppendSrcPodPair keys like AppendPodPair, except that a record whose
// destination is no fabric server (a VIP target) is kept, under the half-key
// "<src pod>|". The groups sharing a source pod then cover exactly the
// records that pod sent, so a per-pod aggregate is the merge of its
// "<src pod>|*" groups and needs no job of its own; SplitPodPair rejects the
// half-key, so heatmaps never see it.
func (k *Keyer) AppendSrcPodPair(dst []byte, r *probe.Record) ([]byte, bool) {
	src, ok := k.server(r.Src)
	if !ok {
		return dst, false
	}
	b := PodRef{DC: src.DC, Podset: src.Podset, Pod: src.Pod}.AppendTo(dst)
	b = append(b, '|')
	if dst2, ok := k.server(r.Dst); ok {
		b = PodRef{DC: dst2.DC, Podset: dst2.Podset, Pod: dst2.Pod}.AppendTo(b)
	}
	return b, true
}

// AppendDCPair keys by "<source DC>-><destination DC>": the grouping of the
// inter-DC processing pipeline (§6.2). Same-DC records resolve too, so
// callers filter by class when they want WAN-only data.
func (k *Keyer) AppendDCPair(dst []byte, r *probe.Record) ([]byte, bool) {
	src, ok := k.server(r.Src)
	if !ok {
		return dst, false
	}
	dst2, ok := k.server(r.Dst)
	if !ok {
		return dst, false
	}
	b := append(dst, k.Top.DCs[src.DC].Name...)
	b = append(b, '-', '>')
	b = append(b, k.Top.DCs[dst2.DC].Name...)
	return b, true
}

// AppendServerPair keys by "<src addr>|<dst addr>": the grouping black-hole
// detection reasons over. Addresses are appended with netip.Addr.AppendTo, so
// no intermediate strings exist.
func (k *Keyer) AppendServerPair(dst []byte, r *probe.Record) ([]byte, bool) {
	b := r.Src.AppendTo(dst)
	b = append(b, '|')
	b = r.Dst.AppendTo(b)
	return b, true
}

// AppendServerPairBinary groups exactly as AppendServerPair does without
// formatting two addresses to text per record: the key is the source's byte
// length (4 or 16) followed by both addresses' bytes. ServerPairKey renders
// it to AppendServerPair's form, once per group instead of once per record.
// A zoned address has no fixed-width form; its pair is keyed by a zero byte
// followed by the text.
func (k *Keyer) AppendServerPairBinary(dst []byte, r *probe.Record) ([]byte, bool) {
	if r.Src.Zone() != "" || r.Dst.Zone() != "" {
		return k.AppendServerPair(append(dst, 0), r)
	}
	src, n := r.Src.As16(), 16
	if r.Src.Is4() {
		n = 4
	}
	b := append(dst, byte(n))
	b = append(b, src[16-n:]...)
	d := r.Dst.As16()
	if r.Dst.Is4() {
		return append(b, d[12:]...), true
	}
	return append(b, d[:]...), true
}

// ServerPairKey renders an AppendServerPairBinary key as the "src|dst" text
// AppendServerPair would have produced for the same record.
func ServerPairKey(bin string) string {
	n := int(bin[0])
	if n == 0 {
		return bin[1:]
	}
	src, _ := netip.AddrFromSlice([]byte(bin[1 : 1+n]))
	dst, _ := netip.AddrFromSlice([]byte(bin[1+n:]))
	return src.String() + "|" + dst.String()
}

// SplitServerPair decodes an AppendServerPair key into its two addresses.
func SplitServerPair(key string) (src, dst netip.Addr, ok bool) {
	a, b, found := strings.Cut(key, "|")
	if !found {
		return netip.Addr{}, netip.Addr{}, false
	}
	src, err1 := netip.ParseAddr(a)
	dst, err2 := netip.ParseAddr(b)
	if err1 != nil || err2 != nil {
		return netip.Addr{}, netip.Addr{}, false
	}
	return src, dst, true
}

// Service is a named set of servers; its SLA is computed from the probes
// those servers send (§4.3: network SLA is tracked per service by mapping
// the service to the servers it uses).
type Service struct {
	Name    string
	members map[netip.Addr]struct{}
}

// NewService builds a service over member addresses.
func NewService(name string, members []netip.Addr) *Service {
	m := make(map[netip.Addr]struct{}, len(members))
	for _, a := range members {
		m[a] = struct{}{}
	}
	return &Service{Name: name, members: m}
}

// ServiceFromServers builds a service from topology server IDs.
func ServiceFromServers(name string, top *topology.Topology, ids []topology.ServerID) *Service {
	addrs := make([]netip.Addr, 0, len(ids))
	for _, id := range ids {
		addrs = append(addrs, top.Server(id).Addr)
	}
	return NewService(name, addrs)
}

// Size returns the number of member servers.
func (s *Service) Size() int { return len(s.members) }

// Contains reports whether the record was produced by a member server.
func (s *Service) Contains(r *probe.Record) bool {
	_, ok := s.members[r.Src]
	return ok
}
