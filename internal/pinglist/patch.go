package pinglist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"sync"
)

// A pinglist delta (§3.3 scale-out) rebuilds the new body from the old
// one, which the agent holds: ranges copied from the old body and the
// bytes between them, as a list of ops compressed by DEFLATE (RFC 1951).
// Each op is a uvarint h for n = h>>1 ≥ 1 bytes:
//
//	h even: a literal, the n bytes that follow;
//	h odd:  a copy of n bytes of the old body, from the offset where the
//	        previous copy ended (0 for the first) plus a zigzag varint
//	        that follows.
//
// A copy names any offset of the old body, so a delta has no window: an
// unchanged run of a 2,000-peer file is one op, whatever its length.
// What a delta rebuilds is a Marshal body, which the agent checks against
// the target's ETag and decodes with Unmarshal.

// MaxPatched bounds the ops Patch inflates and the body it rebuilds: far
// above any pinglist, far below what a hostile delta could make it hold.
const MaxPatched = 64 << 20

// minCopy is the shortest part of a changed line worth a copy op: one
// costs two to four bytes before DEFLATE.
const minCopy = 8

// lineSeed hashes base lines into a DeltaWriter's table. Which line a
// lookup finds does not depend on it — the first of equal lines is kept
// whatever the hash — so deltas are the same in every process.
var lineSeed = maphash.MakeSeed()

// DeltaWriter builds deltas with one compressor and one line table, reused
// from delta to delta: a compress/flate writer is ≈1 MB of tables, a delta
// a few hundred bytes. The zero value is ready to use and allocates its
// writer on its first delta. A DeltaWriter is not safe for concurrent use.
type DeltaWriter struct {
	zw    *flate.Writer
	out   sink
	lines []int   // the base's line starts, then len(base)
	slots []int32 // base lines by content, open-addressed: line index+1, or 0
	ops   opList
}

// sink is where a DeltaWriter's compressor writes.
type sink struct{ buf []byte }

func (s *sink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// Append appends to dst the delta from base to target, which Patch(base,
// delta) turns back into target. It walks target a line at a time (a
// Marshal body holds one peer a line) and takes, in this order:
//
//  1. the base line after the last one it copied, when equal, so an
//     unchanged run is one copy;
//  2. the first equal line anywhere in base;
//  3. a changed line: its longest common prefix and suffix with the base
//     line before or after the last one copied, each copied if minCopy
//     bytes or more, and the bytes between them as a literal.
//
// The bytes depend on base and target alone, not on what the writer built
// before, so every replica builds the same delta. The compressor writes to
// memory and cannot fail.
func (w *DeltaWriter) Append(dst, base, target []byte) []byte {
	w.index(base)
	w.ops.reset(target)
	next := 0 // the base line after the last one copied
	for t := 0; t < len(target); {
		line := target[t : t+lineLen(target[t:])]
		if next+1 < len(w.lines) && bytes.Equal(base[w.lines[next]:w.lines[next+1]], line) {
			w.ops.copy(w.lines[next], len(line))
			next++
		} else if i := w.find(base, line); i >= 0 {
			w.ops.copy(w.lines[i], len(line))
			next = i + 1
		} else {
			ref, pre, suf := -1, 0, 0
			for _, r := range [2]int{next, next - 1} {
				if r < 0 || r+1 >= len(w.lines) {
					continue
				}
				rl := base[w.lines[r]:w.lines[r+1]]
				p := commonPrefix(line, rl)
				if s := commonSuffix(line[p:], rl[p:]); ref < 0 || p+s > pre+suf {
					ref, pre, suf = r, p, s
				}
			}
			if pre < minCopy {
				pre = 0
			}
			if suf < minCopy {
				suf = 0
			}
			if pre > 0 {
				w.ops.copy(w.lines[ref], pre)
			}
			w.ops.literal(t+pre, len(line)-pre-suf)
			if suf > 0 {
				w.ops.copy(w.lines[ref+1]-suf, suf)
			}
			if ref == next {
				next++
			}
		}
		t += len(line)
	}
	w.out.buf = dst
	if w.zw == nil {
		w.zw, _ = flate.NewWriter(&w.out, flate.BestSpeed)
	} else {
		w.zw.Reset(&w.out)
	}
	w.zw.Write(w.ops.end())
	w.zw.Close()
	dst, w.out.buf = w.out.buf, nil
	return dst
}

// lineLen is the length of b's first line, its newline included.
func lineLen(b []byte) int {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return i + 1
	}
	return len(b)
}

// index splits base into lines and tables them by content, keeping the
// first of equal lines.
func (w *DeltaWriter) index(base []byte) {
	w.lines = w.lines[:0]
	for i := 0; i < len(base); i += lineLen(base[i:]) {
		w.lines = append(w.lines, i)
	}
	w.lines = append(w.lines, len(base))
	n := len(w.lines) - 1
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(w.slots) < size {
		w.slots = make([]int32, size)
	}
	w.slots = w.slots[:size]
	clear(w.slots)
	for i := range n {
		line := base[w.lines[i]:w.lines[i+1]]
		for s := w.slot(line); ; s = (s + 1) & (size - 1) {
			if j := int(w.slots[s]) - 1; j < 0 {
				w.slots[s] = int32(i + 1)
				break
			} else if bytes.Equal(base[w.lines[j]:w.lines[j+1]], line) {
				break
			}
		}
	}
}

// find returns the index of base's first line equal to line, or -1.
func (w *DeltaWriter) find(base, line []byte) int {
	for s := w.slot(line); ; s = (s + 1) & (len(w.slots) - 1) {
		j := int(w.slots[s]) - 1
		if j < 0 || bytes.Equal(base[w.lines[j]:w.lines[j+1]], line) {
			return j
		}
	}
}

func (w *DeltaWriter) slot(line []byte) int {
	return int(maphash.Bytes(lineSeed, line) & uint64(len(w.slots)-1))
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[len(a)-1-i] != b[len(b)-1-i] {
			return i
		}
	}
	return n
}

// opList encodes a delta's ops, holding back the last one so that a copy
// that continues the previous copy, or a literal the previous literal,
// extends it.
type opList struct {
	buf     []byte
	target  []byte
	copied  int  // where the last written copy ended in base
	from, n int  // the held op: a base offset (copy) or a target one (literal)
	copying bool // the held op is a copy
}

func (o *opList) reset(target []byte) {
	*o = opList{buf: o.buf[:0], target: target}
}

func (o *opList) copy(from, n int) {
	if o.n > 0 && o.copying && o.from+o.n == from {
		o.n += n
		return
	}
	o.flush()
	o.from, o.n, o.copying = from, n, true
}

func (o *opList) literal(from, n int) {
	if n == 0 {
		return
	}
	if o.n > 0 && !o.copying {
		o.n += n // the target is walked in order: literals touch
		return
	}
	o.flush()
	o.from, o.n, o.copying = from, n, false
}

func (o *opList) flush() {
	switch {
	case o.n == 0:
	case o.copying:
		o.buf = binary.AppendUvarint(o.buf, uint64(o.n)<<1|1)
		o.buf = binary.AppendVarint(o.buf, int64(o.from-o.copied))
		o.copied = o.from + o.n
	default:
		o.buf = binary.AppendUvarint(o.buf, uint64(o.n)<<1)
		o.buf = append(o.buf, o.target[o.from:o.from+o.n]...)
	}
	o.n = 0
}

// end returns the encoded ops; they are the list's until its next reset.
func (o *opList) end() []byte {
	o.flush()
	o.target = nil
	return o.buf
}

// inflaters holds readers for Patch, reused through flate.Resetter: a new
// one costs tens of kilobytes, a delta a few hundred bytes.
var inflaters sync.Pool // io.ReadCloser, a flate.Resetter

// Patch returns the body delta rebuilds from base. A delta that is not one
// whole DEFLATE stream of whole ops, that copies from outside base or that
// inflates or rebuilds past MaxPatched is an error; whether the body is
// the target is the caller's to check, against its ETag.
func Patch(base, delta []byte) ([]byte, error) {
	ops, size, err := parseOps(base, delta)
	if err != nil {
		return nil, fmt.Errorf("pinglist: patch: %w", err)
	}
	out := make([]byte, 0, size)
	for _, o := range ops {
		if o.lit != nil {
			out = append(out, o.lit...)
		} else {
			out = append(out, base[o.from:o.from+o.n]...)
		}
	}
	return out, nil
}

// parseOps inflates delta and checks each of its ops against base,
// returning them and the size of the body they rebuild.
func parseOps(base, delta []byte) (ops []op, size int, err error) {
	rest, err := inflate(delta)
	if err != nil {
		return nil, 0, err
	}
	copied := 0 // where the last copy ended
	for len(rest) > 0 {
		h, k := binary.Uvarint(rest)
		if k <= 0 || h < 2 || h>>1 > uint64(MaxPatched-size) {
			return nil, 0, fmt.Errorf("op %d: bad header", len(ops))
		}
		o := op{n: int(h >> 1)}
		if rest = rest[k:]; h&1 == 0 {
			if o.n > len(rest) {
				return nil, 0, fmt.Errorf("op %d: literal of %d bytes, %d left", len(ops), o.n, len(rest))
			}
			o.lit, rest = rest[:o.n], rest[o.n:]
		} else {
			d, k := binary.Varint(rest)
			if k <= 0 || d < int64(-copied) || d > int64(len(base)-copied-o.n) {
				return nil, 0, fmt.Errorf("op %d: copy of %d bytes from outside a %d-byte base", len(ops), o.n, len(base))
			}
			o.from, rest = copied+int(d), rest[k:]
			copied = o.from + o.n
		}
		ops, size = append(ops, o), size+o.n
	}
	return ops, size, nil
}

// op is one decoded op: a literal's bytes, or a copy of base[from:from+n].
type op struct {
	lit     []byte
	from, n int
}

// inflate returns the ops delta holds, refusing a broken stream, bytes
// after its end and more than MaxPatched of ops.
func inflate(delta []byte) ([]byte, error) {
	src := bytes.NewReader(delta)
	zr, _ := inflaters.Get().(io.ReadCloser)
	if zr == nil {
		zr = flate.NewReader(src)
	} else if err := zr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, err
	}
	defer inflaters.Put(zr)
	var ops bytes.Buffer
	switch n, err := ops.ReadFrom(io.LimitReader(zr, MaxPatched+1)); {
	case err != nil:
		return nil, err
	case n > MaxPatched:
		return nil, fmt.Errorf("ops exceed %d bytes", MaxPatched)
	case src.Len() != 0:
		return nil, fmt.Errorf("%d bytes after the stream's end", src.Len())
	}
	return ops.Bytes(), nil
}
