package cosmos

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// newSealStore returns a store with a tiny extent size so every 64-byte
// append seals an extent.
func newSealStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(3, Config{ExtentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVisitSealedCursor(t *testing.T) {
	s := newSealStore(t)
	payload := bytes.Repeat([]byte{'x'}, 64) // seals immediately

	// Nothing sealed yet.
	if next := s.VisitSealed(0, func(SealEvent) { t.Fatal("visited on empty store") }); next != 0 {
		t.Fatalf("cursor = %d, want 0", next)
	}

	for i := 0; i < 3; i++ {
		if err := s.Append("a", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("b", payload); err != nil {
		t.Fatal(err)
	}
	// Unsealed tail: a short append opens a fifth extent that never seals.
	if err := s.Append("a", []byte("tail")); err != nil {
		t.Fatal(err)
	}

	var got []SealEvent
	cur := s.VisitSealed(0, func(ev SealEvent) { got = append(got, ev) })
	if len(got) != 4 {
		t.Fatalf("visited %d seals, want 4: %+v", len(got), got)
	}
	// Seal order: a/0, a/1, a/2, b/0; indexes per stream, seqs monotone.
	wantStreams := []string{"a", "a", "a", "b"}
	wantIdx := []int{0, 1, 2, 0}
	for i, ev := range got {
		if ev.Stream != wantStreams[i] || ev.Index != wantIdx[i] {
			t.Fatalf("event %d = %+v, want %s/%d", i, ev, wantStreams[i], wantIdx[i])
		}
		if i > 0 && got[i].Seq <= got[i-1].Seq {
			t.Fatalf("seqs not monotone: %+v", got)
		}
	}

	// Resuming from the returned cursor visits nothing until a new seal.
	if s.VisitSealed(cur, func(SealEvent) { t.Fatal("revisited old seal") }) != cur {
		t.Fatal("cursor moved without new seals")
	}
	if err := s.Append("a", payload); err != nil { // fills the tail extent: seals it
		t.Fatal(err)
	}
	var tail []SealEvent
	cur2 := s.VisitSealed(cur, func(ev SealEvent) { tail = append(tail, ev) })
	if len(tail) != 1 || tail[0].Stream != "a" || tail[0].Index != 3 {
		t.Fatalf("resumed visit = %+v, want a/3", tail)
	}
	if cur2 <= cur {
		t.Fatalf("cursor did not advance: %d -> %d", cur, cur2)
	}
}

func TestVisitSealedMatchesSealedFrom(t *testing.T) {
	s := newSealStore(t)
	payload := bytes.Repeat([]byte{'y'}, 64)
	for i := 0; i < 5; i++ {
		if err := s.Append("s", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("s", []byte("open")); err != nil {
		t.Fatal(err)
	}
	if got := s.SealedFrom("s"); got != 5 {
		t.Fatalf("SealedFrom = %d, want 5", got)
	}
	if got := s.NumExtents("s"); got != 6 {
		t.Fatalf("NumExtents = %d, want 6", got)
	}
	if got := s.SealedFrom("missing"); got != 0 {
		t.Fatalf("SealedFrom(missing) = %d, want 0", got)
	}
	// Sealed extents are a prefix: every index below SealedFrom reports
	// sealed, the tail does not.
	for i := 0; i < 6; i++ {
		sealed, err := s.Sealed("s", i)
		if err != nil {
			t.Fatal(err)
		}
		if want := i < 5; sealed != want {
			t.Fatalf("Sealed(s, %d) = %v, want %v", i, sealed, want)
		}
	}
}

func TestDeleteStreamCompactsSealLog(t *testing.T) {
	s := newSealStore(t)
	payload := bytes.Repeat([]byte{'z'}, 64)
	for i := 0; i < 2; i++ {
		if err := s.Append("keep", payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("drop", payload); err != nil {
			t.Fatal(err)
		}
	}
	s.DeleteStream("drop")
	var got []SealEvent
	cur := s.VisitSealed(0, func(ev SealEvent) { got = append(got, ev) })
	if len(got) != 2 {
		t.Fatalf("visited %d events after compaction, want 2: %+v", len(got), got)
	}
	for _, ev := range got {
		if ev.Stream != "keep" {
			t.Fatalf("deleted stream leaked into journal: %+v", ev)
		}
	}
	// A new seal after compaction still advances monotonically past cur.
	if err := s.Append("keep", payload); err != nil {
		t.Fatal(err)
	}
	n := 0
	if s.VisitSealed(cur, func(SealEvent) { n++ }) <= cur || n != 1 {
		t.Fatalf("post-compaction visit = %d events", n)
	}
}

// TestVisitSealedCursorResumeAcrossCompaction: a cursor held across a
// DeleteStream compaction must resume by skipping forward over the
// compacted entries — no error, no replay of already-visited seals — even
// when the exact seq the cursor points at was compacted away.
func TestVisitSealedCursorResumeAcrossCompaction(t *testing.T) {
	s := newSealStore(t)
	payload := bytes.Repeat([]byte{'w'}, 64)
	appendSeal := func(name string) {
		t.Helper()
		if err := s.Append(name, payload); err != nil {
			t.Fatal(err)
		}
	}

	// Interleaved seals: keep/0 (seq 0), drop/0 (1), keep/1 (2).
	appendSeal("keep")
	appendSeal("drop")
	appendSeal("keep")
	var before []SealEvent
	cur := s.VisitSealed(0, func(ev SealEvent) { before = append(before, ev) })
	if len(before) != 3 {
		t.Fatalf("visited %d seals before compaction, want 3", len(before))
	}

	// More seals land — drop/1 (seq 3), keep/2 (4), drop/2 (5) — then the
	// drop stream ages out. The held cursor (3) now points exactly at a
	// compacted seq, and compacted entries exist on both sides of it.
	appendSeal("drop")
	appendSeal("keep")
	appendSeal("drop")
	s.DeleteStream("drop")

	var after []SealEvent
	cur2 := s.VisitSealed(cur, func(ev SealEvent) { after = append(after, ev) })
	if len(after) != 1 || after[0].Stream != "keep" || after[0].Index != 2 {
		t.Fatalf("resumed visit = %+v, want exactly keep/2", after)
	}
	// The surviving event's extent is readable: the cursor never hands out
	// a seal whose stream is gone.
	if _, err := s.ReadExtent(after[0].Stream, after[0].Index); err != nil {
		t.Fatal(err)
	}
	if cur2 <= cur {
		t.Fatalf("cursor did not advance across compaction: %d -> %d", cur, cur2)
	}

	// Everything compacts away: a stale cursor pointing into the removed
	// region skips to the live end and stays there, still without replaying.
	s.DeleteStream("keep")
	if got := s.VisitSealed(cur, func(ev SealEvent) { t.Fatalf("visited %+v after full compaction", ev) }); got != cur2 {
		t.Fatalf("stale cursor resolved to %d, want live end %d", got, cur2)
	}
	if got := s.VisitSealed(cur2, func(ev SealEvent) { t.Fatalf("revisited %+v", ev) }); got != cur2 {
		t.Fatalf("cursor moved without new seals: %d -> %d", cur2, got)
	}
	// New seals after the wipe keep seqs monotone and resume cleanly.
	appendSeal("keep")
	n := 0
	if got := s.VisitSealed(cur2, func(SealEvent) { n++ }); n != 1 || got <= cur2 {
		t.Fatalf("post-wipe visit = %d events, cursor %d -> %d", n, cur2, got)
	}
}

// TestVisitSealedConcurrent races appends (sealing extents) against cursor
// walks reading the sealed extents zero-copy: every sealed extent must be
// visited exactly once across the cursor chain, and its bytes must be the
// complete, immutable contents.
func TestVisitSealedConcurrent(t *testing.T) {
	s := newSealStore(t)
	const streams, perStream = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < streams; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("st/%d", w)
			payload := bytes.Repeat([]byte{byte('a' + w)}, 64)
			for i := 0; i < perStream; i++ {
				if err := s.Append(name, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	seen := map[string]int{}
	var cursor uint64
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		cursor = s.VisitSealed(cursor, func(ev SealEvent) {
			key := fmt.Sprintf("%s#%d", ev.Stream, ev.Index)
			seen[key]++
			data, err := s.ReadExtent(ev.Stream, ev.Index)
			if err != nil {
				t.Errorf("read sealed extent %s: %v", key, err)
				return
			}
			if len(data) != 64 || data[0] != data[63] {
				t.Errorf("sealed extent %s bytes unstable: len=%d", key, len(data))
			}
		})
	}
	cursor = s.VisitSealed(cursor, func(ev SealEvent) {
		seen[fmt.Sprintf("%s#%d", ev.Stream, ev.Index)]++
	})
	if len(seen) != streams*perStream {
		t.Fatalf("visited %d sealed extents, want %d", len(seen), streams*perStream)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("extent %s visited %d times, want exactly once", key, n)
		}
	}
	if s.VisitSealed(cursor, func(SealEvent) { t.Error("spurious revisit") }) != cursor {
		t.Fatal("cursor moved with no new seals")
	}
}

// TestSealJournalWaitsForConcurrentAppends races several appenders on one
// stream against a cursor walk. An append can reserve room in an extent
// before the append that seals it and write its bytes after; the seal must
// not reach the journal until those bytes have landed, so what a visitor
// reads is what the extent holds for good.
func TestSealJournalWaitsForConcurrentAppends(t *testing.T) {
	s, err := NewStore(3, Config{ExtentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + w)}, 24)
			for i := 0; i < perAppender; i++ {
				if err := s.Append("st", payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	atVisit := map[int]int{} // extent index -> length when journaled
	visit := func(ev SealEvent) {
		data, err := s.ReadExtent(ev.Stream, ev.Index)
		if err != nil {
			t.Errorf("read sealed extent %d: %v", ev.Index, err)
			return
		}
		atVisit[ev.Index] = len(data)
	}
	var cursor uint64
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		cursor = s.VisitSealed(cursor, visit)
	}
	s.VisitSealed(cursor, visit)
	if got, want := len(atVisit), s.SealedFrom("st"); got != want {
		t.Fatalf("journal named %d extents, %d are sealed", got, want)
	}
	for idx, n := range atVisit {
		data, err := s.ReadExtent("st", idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != n {
			t.Fatalf("extent %d grew from %d to %d bytes after its seal was journaled", idx, n, len(data))
		}
	}
}
