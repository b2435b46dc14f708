package cosmos

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// replicaCopies returns what each replica's node holds of the i-th extent of
// a stream, in the extent's replica order, read past ReadExtent's choice.
func replicaCopies(t *testing.T, s *Store, name string, i int) [][]byte {
	t.Helper()
	s.mu.RLock()
	ext := s.strms[name].extents[i]
	s.mu.RUnlock()
	var out [][]byte
	for _, nid := range ext.replicas {
		n := s.nodes[nid]
		n.mu.RLock()
		out = append(out, n.extents[ext.id])
		n.mu.RUnlock()
	}
	return out
}

// TestConcurrentAppendsKeepReplicasIdentical: appenders racing on one stream
// leave every replica of every extent byte-identical — each extent has one
// write order, whichever append reserved its bytes first.
func TestConcurrentAppendsKeepReplicasIdentical(t *testing.T) {
	s := newStore(t, 4, Config{Replicas: 3, ExtentSize: 4096})
	const writers, appends = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				if err := s.Append("order", []byte(fmt.Sprintf("w%d-%03d;", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for i := 0; i < s.NumExtents("order"); i++ {
		copies := replicaCopies(t, s, "order", i)
		for r, c := range copies[1:] {
			if !bytes.Equal(c, copies[0]) {
				at := 0
				for at < min(len(c), len(copies[0])) && c[at] == copies[0][at] {
					at++
				}
				t.Fatalf("extent %d: replica %d (%d bytes) and replica 0 (%d bytes) part at byte %d: %.20q vs %.20q",
					i, r+1, len(c), len(copies[0]), at, c[at:], copies[0][at:])
			}
		}
		total += bytes.Count(copies[0], []byte(";"))
	}
	if total != writers*appends {
		t.Fatalf("replicas hold %d records, want %d", total, writers*appends)
	}
}

// TestMissedWriteFencesReplica: a replica whose node was down for one write
// keeps the prefix it held and takes no later write to the extent once its
// node is back, so it never holds bytes in another order than the others.
func TestMissedWriteFencesReplica(t *testing.T) {
	s := newStore(t, 3, Config{Replicas: 3})
	for i, step := range []string{"one", "down", "two", "up", "three"} {
		var err error
		switch step {
		case "down", "up":
			err = s.SetNodeDown(0, step == "down")
		default:
			err = s.Append("a", []byte(step+"\n"))
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step, err)
		}
	}
	copies := replicaCopies(t, s, "a", 0)
	for r, want := range []string{"one\n", "one\ntwo\nthree\n", "one\ntwo\nthree\n"} {
		if string(copies[r]) != want {
			t.Fatalf("replica %d holds %q, want %q", r, copies[r], want)
		}
	}
	if sealed, _ := s.Sealed("a", 0); sealed || s.NumExtents("a") != 1 {
		t.Fatalf("extent sealed (%v) or %d extents while two replicas still take writes", sealed, s.NumExtents("a"))
	}
}

// TestAppendSealsWhenNoReplicaIsUsable: when every replica of the open
// extent is down or fenced, the append seals the extent at what it holds —
// journaled, like any seal — and lands on a new extent on healthy nodes.
func TestAppendSealsWhenNoReplicaIsUsable(t *testing.T) {
	s := newStore(t, 3, Config{Replicas: 2})
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(s.Append("a", []byte("a\n"))) // extent 0 on nodes 0 and 1
	step(s.SetNodeDown(0, true))
	step(s.Append("a", []byte("b\n"))) // fences node 0's replica
	step(s.SetNodeDown(0, false))
	step(s.SetNodeDown(1, true))
	step(s.Append("a", []byte("c\n"))) // node 0 fenced, node 1 down
	step(s.SetNodeDown(1, false))

	if n := s.NumExtents("a"); n != 2 {
		t.Fatalf("%d extents, want 2", n)
	}
	if s.SealedFrom("a") != 1 {
		t.Fatalf("SealedFrom = %d, want 1", s.SealedFrom("a"))
	}
	var evs []SealEvent
	s.VisitSealed(0, func(ev SealEvent) { evs = append(evs, ev) })
	if len(evs) != 1 || evs[0].Index != 0 {
		t.Fatalf("seal journal %+v, want extent 0", evs)
	}
	for i, want := range []string{"a\nb\n", "c\n"} {
		if got, err := s.ReadExtent("a", i); err != nil || string(got) != want {
			t.Fatalf("extent %d = %q, %v; want %q", i, got, err, want)
		}
	}
	if got := s.TotalBytes("a"); got != 6 {
		t.Fatalf("TotalBytes = %d, want 6: the write no replica took is not counted", got)
	}
}
