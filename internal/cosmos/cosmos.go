// Package cosmos reimplements, at testbed scale, the slice of Microsoft's
// Cosmos store Pingmesh depends on (§2.3): append-only streams split into
// extents, each extent replicated across several storage nodes for
// availability. Agents append latency-record batches; SCOPE jobs read the
// extents back in parallel. The front end is a plain method API here; in
// production it sits behind a load-balanced VIP, which the slb package
// models separately.
//
// Consistency note: every extent has one write order. An append writes all
// replicas of its extent under the extent's lock, so concurrent appends land
// in the same order on every replica. A write is acknowledged when at least
// one replica accepts it; a replica that misses one (its node is down) is
// fenced for that extent and takes no later write to it, since it would then
// hold a different byte sequence. So every replica's copy is a prefix of one
// byte sequence, and a read serves the healthy replica holding the longest.
// When an extent has no replica left that is up and not fenced, the append
// seals it and retries on a new extent placed on healthy nodes: an append
// fails only when no node is up. This store has no repair or
// re-replication, so a read lacks acknowledged bytes only while every
// replica holding them is down. Production Cosmos repairs replicas in the
// background; Pingmesh tolerates missing latency records by design, so the
// simplification does not change system behaviour.
package cosmos

import (
	"fmt"
	"sort"
	"sync"
)

// Config tunes a store.
type Config struct {
	// ExtentSize is the byte threshold at which the current extent of a
	// stream is sealed and a new one opened. Default 1 MiB.
	ExtentSize int
	// Replicas is how many nodes hold each extent. Default 3, capped at
	// the node count.
	Replicas int
}

// A replica's copy of an extent starts at extentFloor bytes of capacity and
// doubles, up to ExtentSize plus extentSlack: room for the batch that
// crosses the seal threshold, so that batch lands without one more copy of
// the extent. A stored byte is allocated about twice and copied once more
// than the append that brings it, where append's own 1.25× growth of large
// slices allocates it about five times. Upload batches are a few KB (a
// simulated fleet's seal-crossing batches measure 1.5–22 KB, overshooting
// the threshold by at most 12.6 KB), so any batch up to 32 KiB lands in the
// slack wherever it starts.
const (
	extentFloor = 4 << 10
	extentSlack = 32 << 10
)

// Store is an in-process Cosmos cluster.
type Store struct {
	cfg   Config
	mu    sync.RWMutex
	nodes []*node
	strms map[string]*stream
	next  uint64 // extent id counter
	rr    int    // round-robin cursor for replica placement

	// sealLog journals every extent seal in order, so incremental
	// consumers (the DSA folders) discover newly sealed extents with a
	// cursor instead of re-listing every extent each cycle. Entries carry
	// a monotone seq; DeleteStream compacts entries without reusing seqs,
	// so cursors survive compaction.
	sealLog []SealEvent
	sealSeq uint64
}

// SealEvent records the sealing of one extent: the stream it belongs to
// and its index within the stream. Seq is the journal position; pass Seq+1
// of the last event seen as the next VisitSealed cursor (VisitSealed
// returns exactly that).
type SealEvent struct {
	Seq    uint64
	Stream string
	Index  int
}

type node struct {
	id      int
	mu      sync.RWMutex
	extents map[uint64][]byte
	down    bool
}

type extent struct {
	id       uint64
	size     int
	sealed   bool
	replicas []int // node ids
	// writers counts appends that have reserved room in the extent but not
	// yet finished writing the replicas.
	writers int

	// mu orders the extent's writes: an append holds it across all replicas.
	mu     sync.Mutex
	fenced []bool // per replica: it missed a write and takes no more; under mu
}

type stream struct {
	extents []*extent
}

// NewStore creates a store with numNodes storage nodes.
func NewStore(numNodes int, cfg Config) (*Store, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("cosmos: need at least one node")
	}
	if cfg.ExtentSize <= 0 {
		cfg.ExtentSize = 1 << 20
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Replicas > numNodes {
		cfg.Replicas = numNodes
	}
	s := &Store{cfg: cfg, strms: make(map[string]*stream)}
	for i := 0; i < numNodes; i++ {
		s.nodes = append(s.nodes, &node{id: i, extents: make(map[uint64][]byte)})
	}
	return s, nil
}

// Append appends data to the stream, creating the stream if needed. Files
// in Cosmos are append-only; there is no overwrite.
func (s *Store) Append(name string, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	for {
		s.mu.Lock()
		st, ok := s.strms[name]
		if !ok {
			st = &stream{}
			s.strms[name] = st
		}
		var ext *extent
		if n := len(st.extents); n > 0 && !st.extents[n-1].sealed {
			ext = st.extents[n-1]
		} else {
			var err error
			ext, err = s.newExtentLocked()
			if err != nil {
				s.mu.Unlock()
				return err
			}
			st.extents = append(st.extents, ext)
		}
		ext.size += len(data)
		ext.writers++
		idx := len(st.extents) - 1
		if ext.size >= s.cfg.ExtentSize {
			ext.sealed = true
		}
		s.mu.Unlock()

		// The extent's lock puts this write in one place of its order on
		// every replica; a replica that misses it is fenced. s.nodes and
		// ext.replicas are immutable, so no store lock is needed to find them.
		wrote := false
		ext.mu.Lock()
		for i, nid := range ext.replicas {
			if !ext.fenced[i] {
				ext.fenced[i] = !s.nodes[nid].append(ext.id, data, s.cfg.ExtentSize)
				wrote = wrote || !ext.fenced[i]
			}
		}
		ext.mu.Unlock()

		// A write no replica took leaves every replica fenced, so none can
		// take a later one either: the extent seals at what it holds and the
		// append retries on a new extent. Journal the seal once the last
		// append that reserved room in the extent has finished writing,
		// whichever append that is: a concurrent append can reserve its bytes
		// before the sealing one and land them after it, and a VisitSealed
		// cursor must never hand out an extent whose contents can still grow.
		// A stream deleted in the meantime gets no event — nothing would ever
		// compact it away.
		s.mu.Lock()
		ext.writers--
		if !wrote {
			ext.size -= len(data)
			ext.sealed = true
		}
		if ext.sealed && ext.writers == 0 && s.strms[name] == st {
			s.sealLog = append(s.sealLog, SealEvent{Seq: s.sealSeq, Stream: name, Index: idx})
			s.sealSeq++
		}
		s.mu.Unlock()
		if wrote {
			return nil
		}
	}
}

// newExtentLocked allocates an extent on Replicas distinct healthy nodes.
func (s *Store) newExtentLocked() (*extent, error) {
	var healthy []int
	for _, n := range s.nodes {
		if !n.isDown() {
			healthy = append(healthy, n.id)
		}
	}
	if len(healthy) == 0 {
		return nil, fmt.Errorf("cosmos: no healthy nodes")
	}
	want := s.cfg.Replicas
	if want > len(healthy) {
		want = len(healthy)
	}
	var replicas []int
	for i := 0; i < want; i++ {
		replicas = append(replicas, healthy[(s.rr+i)%len(healthy)])
	}
	s.rr++
	s.next++
	// Registered empty on its replicas before the stream lists it: a
	// reader racing the extent's first append must see an empty extent,
	// not one that is "unavailable on all replicas".
	for _, nid := range replicas {
		s.nodes[nid].append(s.next, nil, s.cfg.ExtentSize)
	}
	return &extent{id: s.next, replicas: replicas, fenced: make([]bool, len(replicas))}, nil
}

// append adds data to the node's copy of extent id, growing the copy by the
// extentFloor/extentSlack policy for an extent that seals at extentSize.
// Growth moves the copy to a new array, so slices ReadExtent handed out
// keep reading the bytes they were given.
func (n *node) append(id uint64, data []byte, extentSize int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return false
	}
	buf := n.extents[id]
	if need := len(buf) + len(data); need > cap(buf) {
		c := max(2*cap(buf), min(extentFloor, extentSize))
		if c >= extentSize {
			c = extentSize + min(extentSlack, extentSize)
		}
		buf = append(make([]byte, 0, max(c, need)), buf...)
	}
	n.extents[id] = append(buf, data...)
	return true
}

func (n *node) read(id uint64) ([]byte, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.down {
		return nil, false
	}
	data, ok := n.extents[id]
	return data, ok
}

func (n *node) isDown() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.down
}

// SetNodeDown marks a storage node down (or back up). Reads and writes
// fail over to surviving replicas.
func (s *Store) SetNodeDown(id int, down bool) error {
	if id < 0 || id >= len(s.nodes) {
		return fmt.Errorf("cosmos: no node %d", id)
	}
	n := s.nodes[id]
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
	return nil
}

// NumExtents reports how many extents a stream has.
func (s *Store) NumExtents(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.strms[name]
	if !ok {
		return 0
	}
	return len(st.extents)
}

// ReadExtent returns the contents of the i-th extent of a stream, served
// from the healthy replica holding the most bytes of it (the first such
// replica on a tie). Every replica's copy is a prefix of the extent's one
// byte sequence and a whole number of appends long, so the longest holds
// every byte any healthy replica does, and a length read earlier is an
// append boundary in every later read that is at least as long.
//
// Aliasing rules (zero-copy read path): the returned slice aliases the
// replica's in-memory copy of the extent — no bytes are copied, so a SCOPE
// job streaming hundreds of extents does not double its resident set.
// Callers MUST treat the slice as read-only. The snapshot is stable: the
// store is append-only, so later appends to an unsealed extent only ever
// write past the returned length (or into a new backing array), and sealed
// extents never change at all. The slice stays valid after DeleteStream
// (the backing array is simply unreferenced by the store). Callers that
// need ownership — e.g. to mutate or to hold many extents while bounding
// store memory — use ReadExtentAppend.
func (s *Store) ReadExtent(name string, i int) ([]byte, error) {
	s.mu.RLock()
	st, ok := s.strms[name]
	if !ok || i < 0 || i >= len(st.extents) {
		s.mu.RUnlock()
		return nil, fmt.Errorf("cosmos: stream %q has no extent %d", name, i)
	}
	ext := st.extents[i]
	replicas := ext.replicas
	s.mu.RUnlock()
	var best []byte
	found := false
	for _, nid := range replicas {
		if data, ok := s.nodes[nid].read(ext.id); ok && (!found || len(data) > len(best)) {
			best, found = data, true
		}
	}
	if !found {
		return nil, fmt.Errorf("cosmos: extent %d of %q unavailable on all replicas", i, name)
	}
	return best, nil
}

// ReadExtentAppend appends the contents of the i-th extent of a stream to
// dst and returns the extended slice: the pooled alternative to
// ReadExtent's zero-copy path for callers that need a private, mutable
// copy. Reusing dst across extents amortizes the copy to zero allocations.
func (s *Store) ReadExtentAppend(dst []byte, name string, i int) ([]byte, error) {
	data, err := s.ReadExtent(name, i)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

// Sealed reports whether the i-th extent of a stream is sealed. Sealed
// extents are immutable forever; unsealed extents may still grow (but
// bytes already returned by ReadExtent never change).
func (s *Store) Sealed(name string, i int) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.strms[name]
	if !ok || i < 0 || i >= len(st.extents) {
		return false, fmt.Errorf("cosmos: stream %q has no extent %d", name, i)
	}
	return st.extents[i].sealed, nil
}

// SealedFrom reports the number of leading sealed extents of a stream.
// Extents seal strictly in order (a new extent is only opened once its
// predecessor sealed), so the sealed extents of a stream are exactly
// [0, SealedFrom(name)) and a caller that has folded extents [0, i) need
// only process [i, SealedFrom(name)) to catch up. Unknown streams report 0.
func (s *Store) SealedFrom(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.strms[name]
	if !ok {
		return 0
	}
	n := len(st.extents)
	if n > 0 && !st.extents[n-1].sealed {
		n--
	}
	return n
}

// VisitSealed calls fn for every extent sealed since cursor, in the order
// their contents became final, and returns the cursor to pass on the next
// call. A cursor of 0 visits every seal since the store was created. Events
// for streams deleted in the meantime are compacted away and never visited;
// seqs are monotone and never reused, so a cursor taken before a
// DeleteStream stays valid.
//
// fn runs without the store lock held (the events are snapshotted first),
// so it may call back into the store — typically ReadExtent, whose
// zero-copy aliasing contract makes visiting sealed extents free: sealed
// extents are immutable, so the returned slice is a stable read-only view.
func (s *Store) VisitSealed(cursor uint64, fn func(ev SealEvent)) uint64 {
	s.mu.RLock()
	// Seqs are strictly increasing, so binary search finds the resume point.
	i := sort.Search(len(s.sealLog), func(i int) bool { return s.sealLog[i].Seq >= cursor })
	events := append([]SealEvent(nil), s.sealLog[i:]...)
	next := s.sealSeq
	s.mu.RUnlock()
	for _, ev := range events {
		fn(ev)
	}
	if next < cursor {
		next = cursor
	}
	return next
}

// Read concatenates every extent of a stream.
func (s *Store) Read(name string) ([]byte, error) {
	n := s.NumExtents(name)
	var out []byte
	for i := 0; i < n; i++ {
		data, err := s.ReadExtent(name, i)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

// Streams lists stream names, sorted. With a prefix, only matching streams
// are returned (streams are named like "pingmesh/<date>/<dc>", so prefix
// queries select a processing window).
func (s *Store) Streams(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name := range s.strms {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// DeleteStream removes a stream and its extents from every node (retention:
// the paper keeps two months of Pingmesh data, then data is aged out).
func (s *Store) DeleteStream(name string) {
	s.mu.Lock()
	st, ok := s.strms[name]
	if ok {
		delete(s.strms, name)
		// Compact the seal journal: events for the deleted stream will
		// never be readable again. Seqs stay monotone, so cursors held by
		// incremental consumers are unaffected.
		kept := s.sealLog[:0]
		for _, ev := range s.sealLog {
			if ev.Stream != name {
				kept = append(kept, ev)
			}
		}
		s.sealLog = kept
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	for _, ext := range st.extents {
		for _, nid := range ext.replicas {
			n := s.nodes[nid]
			n.mu.Lock()
			delete(n.extents, ext.id)
			n.mu.Unlock()
		}
	}
}

// TotalBytes reports the logical (pre-replication) size of a stream.
func (s *Store) TotalBytes(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.strms[name]
	if !ok {
		return 0
	}
	total := 0
	for _, e := range st.extents {
		total += e.size
	}
	return total
}
