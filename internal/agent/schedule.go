package agent

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"pingmesh/internal/netlib"
	"pingmesh/internal/pinglist"
)

// Schedule is the one rule for when a source probes each peer of its
// pinglist (§3.4): each target at its interval, on a grid of Unix times whose phase
// is hashed from the (source, target) pair. Whichever process, run or pinglist
// version schedules a pair, its probes land on the same grid, and a fleet's
// spread over each interval. The agent dispatches from it (Start, Pop); the
// simulated fleet walks the same grid (At).
type Schedule struct {
	entries []scheduled // pinglist order until Start makes them a heap on next
}

type scheduled struct {
	Target
	every       time.Duration
	phase, next int64 // Unix ns: the grid's offset in [0, every), the agent's next probe
}

// Reset validates f's peers (pinglist.Peer.Parse) and rebuilds s as src's
// schedule of them, reusing its memory, and enforces the hard safety limits
// whatever the controller asked for: intervals are clamped up to
// pinglist.MinProbeInterval and payloads down to netlib.MaxPayload. On error
// s is left empty.
func (s *Schedule) Reset(src netip.Addr, f *pinglist.File) error {
	s.entries = s.entries[:0]
	for i := range f.Peers {
		p := &f.Peers[i]
		addr, cls, proto, qos, err := p.Parse()
		if err != nil {
			s.entries = s.entries[:0]
			return fmt.Errorf("pinglist: peer %d: %w", i, err)
		}
		t := Target{addr, p.Port, cls, proto, qos, min(p.PayloadLen, netlib.MaxPayload)}
		every := max(p.Interval(), pinglist.MinProbeInterval)
		s.entries = append(s.entries, scheduled{t, every, int64(phaseHash(src, &t) % uint64(every)), 0})
	}
	return nil
}

// phaseHash is FNV-1a over the (source, target) pair: stable across
// processes, so every scheduler of a pair puts it on the same grid.
func phaseHash(src netip.Addr, t *Target) uint64 {
	var b [40]byte
	s, d := src.As16(), t.Addr.As16()
	copy(b[:], s[:])
	copy(b[16:], d[:])
	binary.LittleEndian.PutUint64(b[32:], uint64(t.Port)<<48|uint64(t.Class)<<40|uint64(t.Proto)<<32|uint64(t.QoS)<<24|uint64(t.PayloadLen))
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// Len returns the number of targets.
func (s *Schedule) Len() int { return len(s.entries) }

// Peer returns target i and its probe interval.
func (s *Schedule) Peer(i int) (*Target, time.Duration) {
	return &s.entries[i].Target, s.entries[i].every
}

// At returns target i's first grid point at or after t.
func (s *Schedule) At(i int, t time.Time) time.Time {
	return t.Add(time.Duration(s.entries[i].until(t.UnixNano())))
}

// until returns how long after Unix nanosecond ns the next grid point is.
func (e *scheduled) until(ns int64) int64 {
	return ((e.phase-ns)%int64(e.every) + int64(e.every)) % int64(e.every)
}

// Start arms every target at its first grid point at or after now, for Pop,
// but a target prev also schedules at its first at or after prev's next
// probe: a pinglist update never brings a probe closer than prev's floor.
func (s *Schedule) Start(now time.Time, prev *Schedule) {
	kept := make(map[Target]int64, prev.Len())
	for i := range prev.Len() {
		kept[prev.entries[i].Target] = prev.entries[i].next
	}
	for i := range s.entries {
		e := &s.entries[i]
		from, ok := kept[e.Target]
		if !ok {
			from = now.UnixNano()
		}
		e.next = from + e.until(from)
	}
	for i := len(s.entries)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// Pop is the agent's dispatch. If the earliest-due target is due at now, Pop
// returns it and re-arms it at its next grid point but never sooner than
// pinglist.MinProbeInterval after now: a late dispatch delays the next probe,
// an on-time one puts it back on the grid. Otherwise Pop returns how long
// until a target is due (an hour when there are none).
func (s *Schedule) Pop(now time.Time) (t Target, wait time.Duration, due bool) {
	if s.Len() == 0 {
		return t, time.Hour, false
	}
	e, ns := &s.entries[0], now.UnixNano()
	if e.next > ns {
		return t, time.Duration(e.next - ns), false
	}
	t, e.next = e.Target, max(e.next+1+e.until(e.next+1), ns+int64(pinglist.MinProbeInterval))
	s.down(0)
	return t, 0, true
}

// down restores the heap order below entry i.
func (s *Schedule) down(i int) {
	h := s.entries
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].next < h[c].next {
			c++
		}
		if h[i].next <= h[c].next {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
