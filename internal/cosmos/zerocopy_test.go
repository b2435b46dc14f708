package cosmos

import (
	"bytes"
	"sync"
	"testing"
)

// TestReadExtentZeroCopy pins the documented aliasing contract: repeated
// reads of the same extent return slices over the same backing array — no
// copy per read.
func TestReadExtentZeroCopy(t *testing.T) {
	s, err := NewStore(3, Config{ExtentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("hello extent")); err != nil {
		t.Fatal(err)
	}
	a, err := s.ReadExtent("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ReadExtent("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("ReadExtent copied the extent: backing arrays differ")
	}
}

// TestReadExtentStableAfterAppend: bytes already returned never change when
// the unsealed extent keeps growing (appends only touch the region past the
// returned length, or a new backing array).
func TestReadExtentStableAfterAppend(t *testing.T) {
	s, err := NewStore(1, Config{ExtentSize: 1 << 20, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("first|")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.ReadExtent("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), snap...)
	for i := 0; i < 64; i++ {
		if err := s.Append("a", bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snap, want) {
		t.Fatalf("snapshot mutated by later appends: %q", snap)
	}
	full, err := s.ReadExtent("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(full, want) {
		t.Fatal("extent no longer starts with the original bytes")
	}
}

// TestReadExtentStableAfterDelete: the zero-copy slice stays valid after
// DeleteStream unreferences the extent.
func TestReadExtentStableAfterDelete(t *testing.T) {
	s, err := NewStore(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("doomed", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.ReadExtent("doomed", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.DeleteStream("doomed")
	if string(snap) != "still here" {
		t.Fatalf("slice invalidated by DeleteStream: %q", snap)
	}
}

func TestReadExtentAppend(t *testing.T) {
	s, err := NewStore(3, Config{ExtentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("extent-0!")); err != nil { // seals (>= 8)
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("extent-1!")); err != nil {
		t.Fatal(err)
	}
	buf := []byte("prefix:")
	buf, err = s.ReadExtentAppend(buf, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = s.ReadExtentAppend(buf, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "prefix:extent-0!extent-1!" {
		t.Fatalf("buf = %q", buf)
	}
	// The copy is private: mutating it must not corrupt the store.
	for i := range buf {
		buf[i] = '?'
	}
	orig, err := s.ReadExtent("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != "extent-0!" {
		t.Fatalf("store data corrupted through ReadExtentAppend copy: %q", orig)
	}
	// Errors leave dst untouched.
	if _, err := s.ReadExtentAppend(nil, "a", 99); err == nil {
		t.Fatal("want error for missing extent")
	}
}

func TestSealed(t *testing.T) {
	s, err := NewStore(3, Config{ExtentSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("12345678")); err != nil { // hits threshold
		t.Fatal(err)
	}
	if err := s.Append("a", []byte("x")); err != nil { // opens extent 1
		t.Fatal(err)
	}
	if sealed, err := s.Sealed("a", 0); err != nil || !sealed {
		t.Fatalf("extent 0: sealed=%v err=%v, want true", sealed, err)
	}
	if sealed, err := s.Sealed("a", 1); err != nil || sealed {
		t.Fatalf("extent 1: sealed=%v err=%v, want false", sealed, err)
	}
	if _, err := s.Sealed("a", 2); err == nil {
		t.Fatal("want error for missing extent")
	}
	if _, err := s.Sealed("nope", 0); err == nil {
		t.Fatal("want error for missing stream")
	}
}

// TestConcurrentAppendAndZeroCopyRead exercises the aliasing contract under
// the race detector: readers hold zero-copy slices while writers keep
// appending to the same stream.
func TestConcurrentAppendAndZeroCopyRead(t *testing.T) {
	s, err := NewStore(3, Config{ExtentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("s", bytes.Repeat([]byte("seed"), 64)); err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			chunk := bytes.Repeat([]byte("w"), 256)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Append("s", chunk); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				n := s.NumExtents("s")
				data, err := s.ReadExtent("s", n-1)
				if err != nil {
					// The last extent can be freshly opened with no replica
					// write landed yet; it must read as empty, not fail.
					t.Error(err)
					return
				}
				_ = len(data)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
