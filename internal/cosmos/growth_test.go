package cosmos

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestGrowthRoundTrip appends batches of random size — from one byte to more
// than a whole extent — over extent sizes from 1 KiB to 1 MiB and on one or
// three replicas, and reads every extent back byte-identical. A slice
// ReadExtent returned before later appends grew the extent's buffer still
// reads what it read then, and every sealed extent's buffer carries at most
// extentSlack bytes of capacity beyond its length.
func TestGrowthRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1 << 10, 7 << 10, 64 << 10, 1 << 20} {
		for _, replicas := range []int{1, 3} {
			t.Run(fmt.Sprintf("extent=%d/replicas=%d", size, replicas), func(t *testing.T) {
				s := newStore(t, 3, Config{ExtentSize: size, Replicas: replicas})
				var want []byte
				// A snapshot is the last extent as read after an append:
				// the bytes want[off:] held at that moment.
				type snap struct {
					idx, off int
					data     []byte
				}
				var snaps []snap
				for len(want) < 4*size {
					n := 1 + rng.Intn(size/8)
					if rng.Intn(16) == 0 {
						n = size + 1 + rng.Intn(size) // a batch bigger than an extent
					}
					batch := make([]byte, n)
					rng.Read(batch)
					if err := s.Append("g", batch); err != nil {
						t.Fatal(err)
					}
					want = append(want, batch...)
					last := s.NumExtents("g") - 1
					data, err := s.ReadExtent("g", last)
					if err != nil {
						t.Fatal(err)
					}
					snaps = append(snaps, snap{last, len(want) - len(data), data})
				}
				got, err := s.Read("g")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("read back %d bytes, not the %d appended", len(got), len(want))
				}
				for i, sn := range snaps {
					if !bytes.Equal(sn.data, want[sn.off:sn.off+len(sn.data)]) {
						t.Fatalf("snapshot %d of extent %d changed after later appends", i, sn.idx)
					}
				}
				for i := 0; i < s.SealedFrom("g"); i++ {
					ext := s.strms["g"].extents[i]
					for _, nid := range ext.replicas {
						buf := s.nodes[nid].extents[ext.id]
						if len(buf) != ext.size || cap(buf)-len(buf) > extentSlack {
							t.Fatalf("sealed extent %d on node %d: len %d cap %d, size %d, slack allowed %d",
								i, nid, len(buf), cap(buf), ext.size, extentSlack)
						}
					}
				}
			})
		}
	}
}

// TestAppendAllocatesAboutTwice pins the growth policy's cost in
// BenchmarkAppend's configuration: filling two extents with 4 KiB batches
// allocates at most 2.1 times the bytes the replicas store (append's own
// growth allocates about 5 times).
func TestAppendAllocatesAboutTwice(t *testing.T) {
	s := newStore(t, 3, Config{ExtentSize: 4 << 20})
	batch := make([]byte, 4096)
	const n = 2 * (4 << 20) / 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := s.Append("a", batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	stored := 3 * n * len(batch)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / float64(stored); got > 2.1 {
		t.Fatalf("Append allocates %.2f times the %d bytes stored, want at most 2.1", got, stored)
	}
}
