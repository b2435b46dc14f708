package scope

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
)

// foldChunkSize is about how long a lane's unit of work is. A sketched window
// fills one extent of cosmos's 1 MiB, so a pass uses a second core only if the
// unit is smaller than an extent; at 64 KiB that extent is sixteen units.
const foldChunkSize = 64 << 10

// foldChunk is one unit: a run of whole upload batches of one extent.
type foldChunk struct {
	data []byte
	last bool // the extent's final chunk: folding it counts the extent folded
}

// appendChunks cuts an extent's bytes into chunks of about size bytes, at
// the batch boundaries probe.SplitBatches can prove. The last chunk of a
// sealed extent's bytes is marked last; an empty sealed extent is one empty
// chunk, so that it is still counted folded.
func appendChunks(chunks []foldChunk, data []byte, size int, sealed bool) []foldChunk {
	for {
		chunk, rest := probe.SplitBatches(data, size)
		chunks = append(chunks, foldChunk{chunk, sealed && len(rest) == 0})
		if len(rest) == 0 {
			return chunks
		}
		data = rest
	}
}

// foldChunks folds the chunks into dst on up to the given number of lanes,
// each taking the next chunk as it finishes one: the caller's goroutine folds
// into dst itself, every other lane into a fork dst absorbs at the end. Every
// merge is exact, so which lane a chunk went to does not show in the result.
func foldChunks(dst *Folder, chunks []foldChunk, lanes int, now time.Time) {
	var dealt atomic.Int64
	fold := func(lane *Folder) {
		for i := int(dealt.Add(1)) - 1; i < len(chunks); i = int(dealt.Add(1)) - 1 {
			if c := chunks[i]; c.last {
				lane.FoldExtent(c.data, now)
			} else {
				lane.FoldChunk(c.data)
			}
		}
	}
	var forks []*Folder
	var wg sync.WaitGroup
	for len(forks) < min(lanes, len(chunks))-1 {
		fork := dst.Fork()
		forks = append(forks, fork)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fold(fork)
		}()
	}
	fold(dst)
	wg.Wait()
	for _, fork := range forks {
		dst.Absorb(fork)
	}
}

// FoldExtents folds the named extents of store into f on every core the
// process may run on: of each, the bytes from its From on, counting a sealed
// one folded at now once they are folded. The extents are read zero-copy and
// cut into chunks, and the chunks — not the extents — are dealt to the lanes:
// the sketch path puts a whole window in one extent, and a pass that deals
// extents folds it on one core while the others idle (DESIGN.md has why a
// pass must not run on one core). It returns, per extent, the offset folding
// reached — the extent's length when read, where the next fold of it starts —
// or the error that kept it from being read; such an extent is not folded.
// Reading fewer bytes than From is such an error: the replica that held them
// is not readable now.
func (f *Folder) FoldExtents(store *cosmos.Store, exts []Extent, now time.Time) (ends []int, errs []error) {
	ends, errs = make([]int, len(exts)), make([]error, len(exts))
	var chunks []foldChunk
	for i, ext := range exts {
		data, err := store.ReadExtent(ext.Stream, ext.Index)
		if err == nil && len(data) < ext.From {
			err = fmt.Errorf("scope: %d bytes readable, %d folded already", len(data), ext.From)
		}
		if err != nil {
			ends[i], errs[i] = ext.From, err
			continue
		}
		if ends[i] = len(data); !ext.Open || ext.From < len(data) {
			chunks = appendChunks(chunks, data[ext.From:], foldChunkSize, !ext.Open)
		}
	}
	foldChunks(f, chunks, runtime.GOMAXPROCS(0), now)
	return ends, errs
}
