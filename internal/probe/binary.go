package probe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"time"

	"pingmesh/internal/metrics"
)

// Binary wire format ("PMB1").
//
// What agents upload. CSV is one ~90-byte line per probe, linear in probe
// count; the binary format carries a far denser payload kind — per-peer
// latency sketches (sparse bucket counts of the shared metrics.Histogram
// layout plus exact tallies) — alongside raw records for the probes that
// need per-record identity (anomalies, traced probes). One sketch
// summarizes an entire reporting window of probes to one peer, making
// upload bytes sub-linear in probe count.
//
// Layout (all integers are encoding/binary varints — "uv" unsigned,
// "v" signed zig-zag):
//
//	batch   := "PMB1" payloadLen:uv payload
//	payload := nRecords:uv record* nSketches:uv sketch*
//	record  := start_ns:v addr(src) sport:uv addr(dst) dport:uv
//	           class:byte proto:byte qos:byte payloadLen:v
//	           rtt_ns:v payload_rtt_ns:v errLen:uv errBytes
//	addr    := len:byte(0|4|16) bytes            // 0 = invalid/zero Addr
//	sketch  := addr(src) addr(dst) dport:uv class:byte proto:byte qos:byte
//	           payloadLen:v minStart_ns:v span_ns:uv hist(rtt) hist(payload)
//	hist    := nRuns:uv [tallies run*], the one histogram wire form: encoded,
//	           validated and iterated by internal/metrics (runs.go)
//
// The length prefix makes the format self-delimiting: a cosmos extent is a
// concatenation of upload batches (CSV documents and/or binary batches),
// and the Scanner resynchronizes at the next batch boundary after any
// corruption inside a payload. The magic is only recognized at top level
// (offset 0 or immediately after a newline), so CSV bytes can never be
// misread mid-line as a batch; the one acceptance change is that a CSV
// line *starting* with "PMB1" — previously just a corrupt row — is now
// treated as a binary batch attempt (and, with no valid header, still
// surfaces as a row error).
//
// Versioning: the trailing '1' in the magic is the version. A future
// format bumps it to "PMB2"; old readers fail the magic check and report
// the batch as one corrupt row instead of misparsing it.

const binaryMagic = "PMB1"

var (
	errBadBatchHeader = errors.New("probe: bad binary batch header")
	errBadBatch       = errors.New("probe: corrupt binary batch")
)

// hasBinaryMagic reports whether b starts a binary batch.
func hasBinaryMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == 'P' && b[1] == 'M' && b[2] == 'B' && b[3] == '1'
}

// Window is the reporting window: a sketch summarizes one peer's healthy
// probes of one Window, and the 10-minute analysis jobs each process one.
const Window = 10 * time.Minute

// WindowIndex returns the index of the window of the given length holding t
// on the system's one window grid: windows start at whole multiples of their
// length since the Unix epoch, so the index is floor(t / window) and ten
// minutes, hours and days all begin where UTC's do. Agents cut sketches on
// this grid, the fold tier keeps its partials by it and the job manager fires
// on it; that is why a sketch never straddles an analysis window and lands
// whole in the window holding its MinStart.
func WindowIndex(t time.Time, window time.Duration) int64 {
	ns, w := t.UnixNano(), int64(window)
	idx := ns / w
	if ns%w < 0 {
		idx--
	}
	return idx
}

// PeerSketch is the encode-side aggregate for one peer: the identity
// fields shared by every summarized probe, the time range covered, and the
// latency histograms. Payload may be nil (or empty) when no probe carried
// a payload echo. All summarized probes are successful non-anomalous ones
// — failures and outliers ship as raw records so they keep per-record
// identity.
type PeerSketch struct {
	Src        netip.Addr
	Dst        netip.Addr
	DstPort    uint16
	Class      Class
	Proto      Proto
	QoS        QoS
	PayloadLen int
	MinStart   time.Time
	MaxStart   time.Time
	RTT        *metrics.Histogram
	Payload    *metrics.Histogram
}

// AppendBinaryBatch appends one binary batch encoding recs and sketches to
// dst and returns the extended slice. Like AppendCSV it allocates nothing
// beyond growth of dst, so callers reusing dst across uploads encode at
// zero allocations in steady state. Class/Proto/QoS values must be valid
// wire values (they are encoded as single bytes).
func AppendBinaryBatch(dst []byte, recs []Record, sketches []PeerSketch) []byte {
	dst = append(dst, binaryMagic...)
	payloadStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = appendBinRecord(dst, &recs[i])
	}
	dst = binary.AppendUvarint(dst, uint64(len(sketches)))
	for i := range sketches {
		dst = appendBinSketch(dst, &sketches[i])
	}
	// Splice the length prefix in front of the payload: append the varint
	// (growing dst by its width), shift the payload right with one
	// overlap-safe copy, then write the varint into the gap.
	plen := len(dst) - payloadStart
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(plen))
	dst = append(dst, scratch[:n]...)
	copy(dst[payloadStart+n:], dst[payloadStart:payloadStart+plen])
	copy(dst[payloadStart:payloadStart+n], scratch[:n])
	return dst
}

func appendBinAddr(dst []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return append(dst, 0)
	case a.Is4():
		b := a.As4()
		dst = append(dst, 4)
		return append(dst, b[:]...)
	default:
		b := a.As16()
		dst = append(dst, 16)
		return append(dst, b[:]...)
	}
}

func appendBinRecord(dst []byte, r *Record) []byte {
	dst = binary.AppendVarint(dst, r.Start.UnixNano())
	dst = appendBinAddr(dst, r.Src)
	dst = binary.AppendUvarint(dst, uint64(r.SrcPort))
	dst = appendBinAddr(dst, r.Dst)
	dst = binary.AppendUvarint(dst, uint64(r.DstPort))
	dst = append(dst, byte(r.Class), byte(r.Proto), byte(r.QoS))
	dst = binary.AppendVarint(dst, int64(r.PayloadLen))
	dst = binary.AppendVarint(dst, int64(r.RTT))
	dst = binary.AppendVarint(dst, int64(r.PayloadRTT))
	dst = binary.AppendUvarint(dst, uint64(len(r.Err)))
	return append(dst, r.Err...)
}

func appendBinSketch(dst []byte, sk *PeerSketch) []byte {
	dst = appendBinAddr(dst, sk.Src)
	dst = appendBinAddr(dst, sk.Dst)
	dst = binary.AppendUvarint(dst, uint64(sk.DstPort))
	dst = append(dst, byte(sk.Class), byte(sk.Proto), byte(sk.QoS))
	dst = binary.AppendVarint(dst, int64(sk.PayloadLen))
	dst = binary.AppendVarint(dst, sk.MinStart.UnixNano())
	dst = binary.AppendUvarint(dst, uint64(sk.MaxStart.UnixNano()-sk.MinStart.UnixNano()))
	dst = sk.RTT.AppendRuns(dst)
	return sk.Payload.AppendRuns(dst)
}

// Sketch is one decoded per-peer sketch. Like Scanner's Record, the value
// returned by Scanner.Sketch is owned by the Scanner and overwritten by
// the next ScanEntry. Its histograms' runs are unpacked into scratch the
// Scanner owns, so a copy of the Sketch shares them until then too: to
// keep a sketch, Clone its RTT and Payload.
type Sketch struct {
	Src        netip.Addr
	Dst        netip.Addr
	DstPort    uint16
	Class      Class
	Proto      Proto
	QoS        QoS
	PayloadLen int
	MinStart   time.Time
	MaxStart   time.Time
	RTT        metrics.Runs
	Payload    metrics.Runs
}

// Records returns the number of probe outcomes the sketch summarizes.
func (sk *Sketch) Records() uint64 { return sk.RTT.Count }

// FillRecord overwrites r with a representative record for the sketch: the
// identity fields every summarized probe shares, Start = MinStart, and
// success-path zero values elsewhere. Filters and group keys that only
// read identity fields (addresses, ports, class/proto/qos, payload length)
// evaluate identically on the representative as they would on any
// summarized record.
func (sk *Sketch) FillRecord(r *Record) {
	*r = Record{
		Start:      sk.MinStart,
		Src:        sk.Src,
		Dst:        sk.Dst,
		DstPort:    sk.DstPort,
		Class:      sk.Class,
		Proto:      sk.Proto,
		QoS:        sk.QoS,
		PayloadLen: sk.PayloadLen,
	}
}

func getBinAddr(d []byte, off int) (netip.Addr, int, bool) {
	if off >= len(d) {
		return netip.Addr{}, off, false
	}
	switch n := d[off]; n {
	case 0:
		return netip.Addr{}, off + 1, true
	case 4:
		if off+5 > len(d) {
			return netip.Addr{}, off, false
		}
		return netip.AddrFrom4([4]byte(d[off+1 : off+5])), off + 5, true
	case 16:
		if off+17 > len(d) {
			return netip.Addr{}, off, false
		}
		return netip.AddrFrom16([16]byte(d[off+1 : off+17])), off + 17, true
	default:
		return netip.Addr{}, off, false
	}
}

// parseBinRecord decodes one record at s.off (bounded by s.binEnd) into
// s.rec, advancing s.off. Like the CSV path, the Err string is interned so
// steady-state decode allocates nothing.
func (s *Scanner) parseBinRecord() error {
	d := s.data[:s.binEnd]
	off := s.off
	r := &s.rec
	var ok bool
	var v int64
	var u uint64
	if v, off, ok = metrics.Varint(d, off); !ok {
		return errBadBatch
	}
	r.Start = time.Unix(0, v).UTC()
	if r.Src, off, ok = getBinAddr(d, off); !ok {
		return errBadBatch
	}
	if u, off, ok = metrics.Uvarint(d, off); !ok || u > 0xffff {
		return errBadBatch
	}
	r.SrcPort = uint16(u)
	if r.Dst, off, ok = getBinAddr(d, off); !ok {
		return errBadBatch
	}
	if u, off, ok = metrics.Uvarint(d, off); !ok || u > 0xffff {
		return errBadBatch
	}
	r.DstPort = uint16(u)
	if off+3 > len(d) {
		return errBadBatch
	}
	class, proto, qos := d[off], d[off+1], d[off+2]
	off += 3
	if class > byte(InterDC) || proto > byte(HTTP) || qos > byte(QoSLow) {
		return errBadBatch
	}
	r.Class, r.Proto, r.QoS = Class(class), Proto(proto), QoS(qos)
	if v, off, ok = metrics.Varint(d, off); !ok {
		return errBadBatch
	}
	r.PayloadLen = int(v)
	if v, off, ok = metrics.Varint(d, off); !ok {
		return errBadBatch
	}
	r.RTT = time.Duration(v)
	if v, off, ok = metrics.Varint(d, off); !ok {
		return errBadBatch
	}
	r.PayloadRTT = time.Duration(v)
	if u, off, ok = metrics.Uvarint(d, off); !ok || u > uint64(len(d)-off) {
		return errBadBatch
	}
	r.Err = s.internErr(d[off : off+int(u)])
	s.off = off + int(u)
	return nil
}

// parseBinSketch decodes one sketch at s.off (bounded by s.binEnd) into
// s.sk, advancing s.off.
func (s *Scanner) parseBinSketch() error {
	d := s.data[:s.binEnd]
	off := s.off
	sk := &s.sk
	var ok bool
	var v int64
	var u uint64
	if sk.Src, off, ok = getBinAddr(d, off); !ok {
		return errBadBatch
	}
	if sk.Dst, off, ok = getBinAddr(d, off); !ok {
		return errBadBatch
	}
	if u, off, ok = metrics.Uvarint(d, off); !ok || u > 0xffff {
		return errBadBatch
	}
	sk.DstPort = uint16(u)
	if off+3 > len(d) {
		return errBadBatch
	}
	class, proto, qos := d[off], d[off+1], d[off+2]
	off += 3
	if class > byte(InterDC) || proto > byte(HTTP) || qos > byte(QoSLow) {
		return errBadBatch
	}
	sk.Class, sk.Proto, sk.QoS = Class(class), Proto(proto), QoS(qos)
	if v, off, ok = metrics.Varint(d, off); !ok {
		return errBadBatch
	}
	sk.PayloadLen = int(v)
	if v, off, ok = metrics.Varint(d, off); !ok {
		return errBadBatch
	}
	sk.MinStart = time.Unix(0, v).UTC()
	if u, off, ok = metrics.Uvarint(d, off); !ok || u > uint64(1<<62) {
		return errBadBatch
	}
	sk.MaxStart = time.Unix(0, v+int64(u)).UTC()
	var n int
	if sk.RTT, s.runs, n, ok = metrics.DecodeRuns(d[off:], s.runs[:0]); !ok {
		return errBadBatch
	}
	off += n
	if sk.Payload, s.runs, n, ok = metrics.DecodeRuns(d[off:], s.runs); !ok {
		return errBadBatch
	}
	// A sketch that summarizes nothing is meaningless on the wire.
	if sk.RTT.Count == 0 {
		return errBadBatch
	}
	s.off = off + n
	return nil
}

// batchPayload reads the header of the batch whose magic starts at
// data[off:]: where its payload starts and how long it is. ok is false when
// the length prefix is malformed or reaches past the input.
func batchPayload(data []byte, off int) (start, plen int, ok bool) {
	off += len(binaryMagic)
	n64, n := binary.Uvarint(data[off:])
	if n <= 0 || n64 > uint64(len(data)-off-n) {
		return 0, 0, false
	}
	return off + n, int(n64), true
}

// SplitBatches cuts the shortest non-empty prefix of data that is at least
// size bytes long and ends on a top-level boundary — after a whole binary
// batch, skipped by its length prefix, or after a CSV line's newline — and
// returns it with the rest (empty on the last chunk). It walks the top-level
// positions the Scanner does, so scanning chunk after chunk yields exactly
// the entries and row errors of scanning data whole (Line restarts per chunk;
// HeaderOnlyAtStart documents must not be split). At a batch header whose
// length cannot be trusted — which the Scanner reports as one corrupt row to
// the end of the input — there is no provable boundary: the rest is one chunk.
func SplitBatches(data []byte, size int) (chunk, rest []byte) {
	off := 0
	for off < len(data) {
		if hasBinaryMagic(data[off:]) {
			start, plen, ok := batchPayload(data, off)
			if !ok {
				return data, nil
			}
			off = start + plen
		} else if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			off += i + 1
		} else {
			return data, nil
		}
		if off >= size {
			break
		}
	}
	return data[:off], data[off:]
}

// Binary batch state machine, driven by Scanner.ScanEntry.

const (
	binNone int8 = iota
	binRecords
	binSketches
)

// startBinaryBatch parses a batch header at s.off (which hasBinaryMagic
// matched) and enters the records phase. A header whose length cannot be
// trusted is unrecoverable — there is no resync point — so the rest of the
// input is consumed and reported as one corrupt row.
func (s *Scanner) startBinaryBatch() EntryKind {
	off, plen, ok := batchPayload(s.data, s.off)
	if !ok {
		s.off = len(s.data)
		s.rowErr = errBadBatchHeader
		return EntryRecord
	}
	s.binEnd = off + plen
	s.off = off
	nrec, n := binary.Uvarint(s.data[s.off:s.binEnd])
	// Every record is >= 13 bytes on the wire, so a count beyond the
	// payload length is certainly corrupt; checking here keeps the loop
	// counter within the input size.
	if n <= 0 || nrec > uint64(plen) {
		return s.abortBatch(errBadBatch)
	}
	s.off += n
	s.binPhase = binRecords
	s.binRemain = int(nrec)
	return entryAgain
}

// abortBatch abandons the current batch after corruption inside its
// payload: the trusted length prefix gives the resync point, so only this
// batch is lost (as one corrupt row) and scanning resumes at the next
// batch or CSV line.
func (s *Scanner) abortBatch(err error) EntryKind {
	s.off = s.binEnd
	s.binPhase = binNone
	s.binRemain = 0
	s.rowErr = err
	return EntryRecord
}

// scanBinary yields the next entry of the batch in progress, or entryAgain
// once the batch is fully consumed.
func (s *Scanner) scanBinary() EntryKind {
	if s.binPhase == binRecords {
		if s.binRemain > 0 {
			s.binRemain--
			if err := s.parseBinRecord(); err != nil {
				return s.abortBatch(err)
			}
			s.rowErr = nil
			return EntryRecord
		}
		nsk, n := binary.Uvarint(s.data[s.off:s.binEnd])
		if n <= 0 || nsk > uint64(s.binEnd-s.off) {
			return s.abortBatch(errBadBatch)
		}
		s.off += n
		s.binPhase = binSketches
		s.binRemain = int(nsk)
	}
	if s.binRemain > 0 {
		s.binRemain--
		if err := s.parseBinSketch(); err != nil {
			return s.abortBatch(err)
		}
		s.rowErr = nil
		return EntrySketch
	}
	if s.off != s.binEnd {
		// Trailing bytes after the declared entries: corrupt.
		return s.abortBatch(errBadBatch)
	}
	s.binPhase = binNone
	return entryAgain
}
