package cosmos

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pingmesh/internal/simclock"
)

func newStore(t *testing.T, nodes int, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0, Config{}); err == nil {
		t.Fatal("NewStore(0) succeeded")
	}
	// Replicas capped at node count.
	s := newStore(t, 2, Config{Replicas: 5})
	if s.cfg.Replicas != 2 {
		t.Fatalf("Replicas = %d, want 2", s.cfg.Replicas)
	}
}

func TestAppendRead(t *testing.T) {
	s := newStore(t, 3, Config{})
	if err := s.Append("a", []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, err := s.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Fatalf("Read = %q", data)
	}
}

func TestAppendEmptyIsNoop(t *testing.T) {
	s := newStore(t, 1, Config{})
	if err := s.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	if s.NumExtents("a") != 0 {
		t.Fatal("empty append created an extent")
	}
}

func TestExtentSealing(t *testing.T) {
	s := newStore(t, 3, Config{ExtentSize: 10})
	for i := 0; i < 5; i++ {
		if err := s.Append("a", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumExtents("a"); got != 5 {
		t.Fatalf("NumExtents = %d, want 5 (sealed at 10 bytes each)", got)
	}
	// Per-extent reads reassemble the stream.
	var all []byte
	for i := 0; i < 5; i++ {
		part, err := s.ReadExtent("a", i)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, part...)
	}
	if len(all) != 50 {
		t.Fatalf("reassembled %d bytes", len(all))
	}
	if s.TotalBytes("a") != 50 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes("a"))
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	s := newStore(t, 3, Config{Replicas: 3})
	payload := []byte("precious latency data")
	if err := s.Append("a", payload); err != nil {
		t.Fatal(err)
	}
	// Take down two of three nodes: data still readable.
	s.SetNodeDown(0, true)
	s.SetNodeDown(1, true)
	data, err := s.Read("a")
	if err != nil {
		t.Fatalf("Read with 2/3 nodes down: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("data corrupted after failover")
	}
	// All three down: unavailable.
	s.SetNodeDown(2, true)
	if _, err := s.Read("a"); err == nil {
		t.Fatal("Read succeeded with every replica down")
	}
	// Recovery.
	s.SetNodeDown(0, false)
	if _, err := s.Read("a"); err != nil {
		t.Fatalf("Read after node recovery: %v", err)
	}
}

func TestAppendWithNodeDownStillReplicates(t *testing.T) {
	s := newStore(t, 3, Config{Replicas: 3})
	s.SetNodeDown(0, true)
	if err := s.Append("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The write landed on the healthy nodes; bring 0 back and kill 1,2.
	s.SetNodeDown(0, false)
	s.SetNodeDown(1, true)
	s.SetNodeDown(2, true)
	// Node 0 never got the extent (it was down at allocation): the extent
	// was placed on healthy nodes only, so reads must still work through
	// whichever replica set was chosen. With 1 and 2 down and the extent
	// on {1,2}, this read fails — verifying placement skipped node 0.
	_, err := s.Read("a")
	if err == nil {
		t.Fatal("extent was unexpectedly placed on a down node")
	}
}

func TestAllNodesDownAppendFails(t *testing.T) {
	s := newStore(t, 2, Config{})
	s.SetNodeDown(0, true)
	s.SetNodeDown(1, true)
	if err := s.Append("a", []byte("x")); err == nil {
		t.Fatal("Append succeeded with all nodes down")
	}
}

func TestStreamsPrefixQuery(t *testing.T) {
	s := newStore(t, 1, Config{})
	for _, name := range []string{"pingmesh/2026-07-01/dc1", "pingmesh/2026-07-01/dc2", "pingmesh/2026-07-02/dc1", "other/x"} {
		if err := s.Append(name, []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Streams("pingmesh/2026-07-01/")
	if len(got) != 2 || got[0] != "pingmesh/2026-07-01/dc1" || got[1] != "pingmesh/2026-07-01/dc2" {
		t.Fatalf("Streams = %v", got)
	}
	if all := s.Streams(""); len(all) != 4 {
		t.Fatalf("all streams = %v", all)
	}
}

func TestDeleteStream(t *testing.T) {
	s := newStore(t, 2, Config{})
	s.Append("old", []byte("data"))
	s.DeleteStream("old")
	if s.NumExtents("old") != 0 {
		t.Fatal("stream survived delete")
	}
	if _, err := s.Read("old"); err == nil {
		// Read of a missing stream returns empty, not error — acceptable;
		// ensure it is at least empty.
		data, _ := s.Read("old")
		if len(data) != 0 {
			t.Fatal("deleted stream still has data")
		}
	}
	// Nodes no longer hold the extent bytes.
	total := 0
	for _, n := range s.nodes {
		n.mu.RLock()
		total += len(n.extents)
		n.mu.RUnlock()
	}
	if total != 0 {
		t.Fatalf("%d extents remain on nodes after delete", total)
	}
	// Deleting a nonexistent stream is a no-op.
	s.DeleteStream("never-existed")
}

func TestReadExtentErrors(t *testing.T) {
	s := newStore(t, 1, Config{})
	if _, err := s.ReadExtent("missing", 0); err == nil {
		t.Fatal("ReadExtent on missing stream succeeded")
	}
	s.Append("a", []byte("x"))
	if _, err := s.ReadExtent("a", 5); err == nil {
		t.Fatal("ReadExtent out of range succeeded")
	}
}

func TestConcurrentAppends(t *testing.T) {
	s := newStore(t, 3, Config{ExtentSize: 256})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := s.Append("conc", []byte(fmt.Sprintf("w%d-%03d;", i, j))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	data, err := s.Read("conc")
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte(";")); got != 800 {
		t.Fatalf("found %d records, want 800", got)
	}
}

func TestAppendReadRoundTripProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		s, err := NewStore(3, Config{ExtentSize: 64})
		if err != nil {
			return false
		}
		var want []byte
		for _, c := range chunks {
			if err := s.Append("p", c); err != nil {
				return false
			}
			want = append(want, c...)
		}
		got, err := s.Read("p")
		if err != nil {
			return len(want) == 0
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClientUploadRoutesByDay(t *testing.T) {
	s := newStore(t, 3, Config{})
	clock := simclock.NewSim(time.Date(2026, 7, 1, 23, 59, 0, 0, time.UTC))
	c := &Client{Store: s, Stream: DailyStream("pingmesh"), Clock: clock}
	if err := c.Upload(context.Background(), []byte("day1")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute) // crosses midnight
	if err := c.Upload(context.Background(), []byte("day2")); err != nil {
		t.Fatal(err)
	}
	d1, _ := s.Read("pingmesh/2026-07-01")
	d2, _ := s.Read("pingmesh/2026-07-02")
	if string(d1) != "day1" || string(d2) != "day2" {
		t.Fatalf("daily routing wrong: %q %q", d1, d2)
	}
}

func TestClientUploadCancelledContext(t *testing.T) {
	s := newStore(t, 1, Config{})
	c := &Client{Store: s}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Upload(ctx, []byte("x")); err == nil {
		t.Fatal("Upload with cancelled context succeeded")
	}
}

func TestClientDefaultStream(t *testing.T) {
	s := newStore(t, 1, Config{})
	c := &Client{Store: s}
	if err := c.Upload(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Read("pingmesh/default"); string(data) != "x" {
		t.Fatal("default stream not used")
	}
}

// TestReadServesTheFullestReplica: a replica that was down for an append
// the others hold is back up, and it is the first in the extent's replica
// list; a read must still return every acknowledged byte.
func TestReadServesTheFullestReplica(t *testing.T) {
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
	if got, err := s.ReadExtent("a", 0); err != nil || string(got) != "one\ntwo\nthree\n" {
		t.Fatalf("ReadExtent = %q, %v; want every acknowledged append", got, err)
	}
}

func TestConcurrentAppendsWithNodeFlapping(t *testing.T) {
	// Appends race with nodes bouncing: every tenth append, by a count the
	// writers share, takes the next node down and brings the previous one
	// up, so one node is down at a time and which one moves with the work
	// done, not with the wall clock. The store must never panic or race;
	// acknowledged writes land on at least one replica, and after full
	// recovery the stream reads back whole 100-byte records (a node that was
	// down during a write simply misses that write's copy; the read serves
	// a replica that has it).
	s := newStore(t, 4, Config{Replicas: 3, ExtentSize: 2048})
	var flipMu sync.Mutex
	var appends atomic.Int64
	down := -1
	flip := func() {
		n := appends.Add(1)
		if n%10 != 0 {
			return
		}
		flipMu.Lock()
		defer flipMu.Unlock()
		if down >= 0 {
			s.SetNodeDown(down, false)
		}
		down = int(n/10) % 4
		s.SetNodeDown(down, true)
	}

	var writers sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, 100)
			for i := 0; i < 200; i++ {
				flip()
				if err := s.Append("flap", payload); err == nil {
					acked.Add(1)
				}
			}
		}(w)
	}
	writers.Wait()
	for n := 0; n < 4; n++ {
		s.SetNodeDown(n, false)
	}
	data, err := s.Read("flap")
	if err != nil {
		t.Fatalf("Read after recovery: %v", err)
	}
	if len(data)%100 != 0 {
		t.Fatalf("read %d bytes: torn record", len(data))
	}
	if int64(len(data)/100) > acked.Load() {
		t.Fatalf("read more records (%d) than were acknowledged (%d)", len(data)/100, acked.Load())
	}
	if acked.Load() < 700 {
		t.Fatalf("only %d of 800 appends acknowledged with single-node flaps", acked.Load())
	}
}
