package probe

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"time"
)

// Scanner iterates over the records of a CSV latency document in place:
// it never copies the input, never splits it into line or field slices,
// and parses every field straight from the extent bytes. It is the hot
// ingest path of the SCOPE/DSA pipeline — at the paper's scale (§3.5, ~200B
// records and 24 TB per day) the analysis jobs must sustain multi-Gb/s
// decode throughput, which the allocating DecodeBatch path cannot.
//
// Usage:
//
//	var sc Scanner
//	sc.Reset(data)
//	for sc.Scan() {
//		if err := sc.RowErr(); err != nil {
//			// corrupt row, skipped — never fatal
//			continue
//		}
//		visit(sc.Record())
//	}
//
// Aliasing rules: the *Record returned by Record is owned by the Scanner
// and overwritten by the next Scan or Reset; copy it to retain it. The
// Record never aliases the input bytes — Err strings are interned copies —
// so a copied Record stays valid after the extent buffer is reused.
//
// Header handling: by default any line byte-equal to CSVHeader is treated
// as a header and skipped, because Cosmos extents are concatenations of
// agent upload batches and every batch starts with the header (a valid data
// row can never collide with it: its first field must parse as an integer).
// Set HeaderOnlyAtStart for standalone documents where only the first line
// may be a header.
//
// Binary batches: extents may interleave CSV documents with "PMB1" binary
// batches (see binary.go). Scan yields only records, silently skipping
// sketch entries, so existing record-only consumers work unchanged on
// mixed input; sketch-aware consumers drive ScanEntry instead.
//
// The zero value is ready to use after Reset. A Scanner is not safe for
// concurrent use.
type Scanner struct {
	data []byte
	off  int
	line int // 1-based physical line number of the current row

	rec    Record
	rowErr error

	// HeaderOnlyAtStart restricts header skipping to the first non-empty
	// line of the document; a later line equal to CSVHeader is then parsed
	// as a (necessarily corrupt) data row and counted as a parse error.
	HeaderOnlyAtStart bool
	sawLine           bool // a non-empty line has been consumed

	// Binary batch in progress (see binary.go).
	binPhase  int8 // binNone / binRecords / binSketches
	binRemain int  // entries left in the current phase
	binEnd    int  // offset one past the current batch payload
	sk        Sketch
	runs      []uint64 // sk's histograms' runs

	errIntern map[string]string
}

// EntryKind says what the last ScanEntry yielded.
type EntryKind int8

// Entry kinds.
const (
	EntryEOF    EntryKind = iota // input exhausted
	EntryRecord                  // a record (or a corrupt row — check RowErr)
	EntrySketch                  // a per-peer latency sketch
)

// entryAgain is an internal sentinel: the state machine consumed input
// (batch framing, blank line, header) without yielding an entry.
const entryAgain EntryKind = -1

// maxInternedErrs bounds the error-string intern table so adversarial
// input (every row failing with a unique message) cannot grow memory
// without bound. Beyond the cap, Err strings are allocated per record.
const maxInternedErrs = 1024

// NewScanner returns a Scanner over data. Equivalent to Reset on a zero
// Scanner.
func NewScanner(data []byte) *Scanner {
	s := &Scanner{}
	s.Reset(data)
	return s
}

// Reset rewinds the Scanner onto a new document. The error-string intern
// table is retained, so a worker that Resets one Scanner across many
// extents stops allocating once the (small) error vocabulary has been
// seen.
func (s *Scanner) Reset(data []byte) {
	s.data = data
	s.off = 0
	s.line = 0
	s.rowErr = nil
	s.sawLine = false
	s.binPhase = binNone
	s.binRemain = 0
	s.binEnd = 0
}

// Scan advances to the next data row, CSV or binary, skipping sketch
// entries. It returns false when the input is exhausted. After Scan
// returns true, exactly one of RowErr (corrupt row) or Record (parsed row)
// is meaningful. On pure CSV input Scan behaves exactly as it did before
// the binary format existed.
func (s *Scanner) Scan() bool {
	for {
		switch s.ScanEntry() {
		case EntryEOF:
			return false
		case EntryRecord:
			return true
		}
		// EntrySketch: Scan is the records-only view.
	}
}

// ScanEntry advances to the next entry — a record (EntryRecord; check
// RowErr before Record) or a per-peer sketch (EntrySketch; read it with
// Sketch) — returning EntryEOF when the input is exhausted. The "PMB1"
// magic is only recognized at top level (offset 0 or immediately after a
// newline), never inside a CSV line or a binary payload.
func (s *Scanner) ScanEntry() EntryKind {
	for {
		if s.binPhase != binNone {
			if k := s.scanBinary(); k != entryAgain {
				return k
			}
			continue
		}
		if s.off >= len(s.data) {
			return EntryEOF
		}
		if hasBinaryMagic(s.data[s.off:]) {
			// A binary batch counts as one physical "line" for Line()
			// purposes — its entries carry no line structure.
			s.line++
			s.sawLine = true
			if k := s.startBinaryBatch(); k != entryAgain {
				return k
			}
			continue
		}
		start := s.off
		var line []byte
		if i := bytes.IndexByte(s.data[s.off:], '\n'); i >= 0 {
			line = s.data[start : start+i]
			s.off = start + i + 1
		} else {
			line = s.data[start:]
			s.off = len(s.data)
		}
		s.line++
		// CRLF: Windows-origin files terminate lines with \r\n; strip the
		// CR so the trailing err field does not absorb it.
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		first := !s.sawLine
		s.sawLine = true
		if string(line) == CSVHeader && (first || !s.HeaderOnlyAtStart) {
			continue
		}
		s.rowErr = s.parseLine(line)
		return EntryRecord
	}
}

// Sketch returns the sketch parsed by the last ScanEntry that returned
// EntrySketch. It and its histograms' runs are owned by the Scanner and
// valid only until the next ScanEntry, which overwrites both: a caller
// that keeps a sketch past that copies it and Clones its RTT and Payload.
func (s *Scanner) Sketch() *Sketch { return &s.sk }

// Record returns the row parsed by the last Scan. It is only valid when
// RowErr is nil, and only until the next Scan or Reset; see the aliasing
// rules in the type comment.
func (s *Scanner) Record() *Record { return &s.rec }

// RowErr returns the parse error of the current row, or nil if the row
// parsed cleanly. A row error is never fatal: corrupt rows must not kill a
// fleet-wide job, so callers count and continue.
func (s *Scanner) RowErr() error { return s.rowErr }

// Line returns the 1-based physical line number of the current row.
func (s *Scanner) Line() int { return s.line }

// parseLine parses one CSV data row into s.rec without allocating.
func (s *Scanner) parseLine(b []byte) error {
	var f [12][]byte
	n := 0
	start := 0
	for i := 0; i <= len(b); i++ {
		if i < len(b) && b[i] != ',' {
			continue
		}
		if n == 12 {
			// More than 12 fields: count the rest for the error.
			return fmt.Errorf("probe: record has %d fields, want 12", 13+bytes.Count(b[i:], commaSep))
		}
		f[n] = b[start:i]
		n++
		start = i + 1
	}
	if n != 12 {
		return fmt.Errorf("probe: record has %d fields, want 12", n)
	}
	r := &s.rec
	startNS, err := parseIntBytes(f[0], 64)
	if err != nil {
		return fmt.Errorf("probe: bad start %q: %w", f[0], err)
	}
	r.Start = time.Unix(0, startNS).UTC()
	if r.Src, err = parseAddrBytes(f[1]); err != nil {
		return fmt.Errorf("probe: bad src: %w", err)
	}
	sport, err := parseUintBytes(f[2], 16)
	if err != nil {
		return fmt.Errorf("probe: bad sport: %w", err)
	}
	r.SrcPort = uint16(sport)
	if r.Dst, err = parseAddrBytes(f[3]); err != nil {
		return fmt.Errorf("probe: bad dst: %w", err)
	}
	dport, err := parseUintBytes(f[4], 16)
	if err != nil {
		return fmt.Errorf("probe: bad dport: %w", err)
	}
	r.DstPort = uint16(dport)
	var ok bool
	if r.Class, ok = classFromBytes(f[5]); !ok {
		return fmt.Errorf("probe: unknown class %q", f[5])
	}
	if r.Proto, ok = protoFromBytes(f[6]); !ok {
		return fmt.Errorf("probe: unknown proto %q", f[6])
	}
	if r.QoS, ok = qosFromBytes(f[7]); !ok {
		return fmt.Errorf("probe: unknown qos %q", f[7])
	}
	payload, err := parseIntBytes(f[8], 64)
	if err != nil {
		return fmt.Errorf("probe: bad payload: %w", err)
	}
	r.PayloadLen = int(payload)
	rtt, err := parseIntBytes(f[9], 64)
	if err != nil {
		return fmt.Errorf("probe: bad rtt: %w", err)
	}
	r.RTT = time.Duration(rtt)
	prtt, err := parseIntBytes(f[10], 64)
	if err != nil {
		return fmt.Errorf("probe: bad payload rtt: %w", err)
	}
	r.PayloadRTT = time.Duration(prtt)
	r.Err = s.internErr(f[11])
	return nil
}

var commaSep = []byte{','}

// internErr converts an err field to a string, reusing one canonical copy
// per distinct message. Probe error strings form a tiny vocabulary
// ("connect timeout", "connection refused", ...), so the hit rate is ~100%
// in steady state and the lookup — map index on string(b), which Go does
// not allocate for — is the only work.
func (s *Scanner) internErr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if v, ok := s.errIntern[string(b)]; ok {
		return v
	}
	v := string(b)
	if s.errIntern == nil {
		s.errIntern = make(map[string]string)
	}
	if len(s.errIntern) < maxInternedErrs {
		s.errIntern[v] = v
	}
	return v
}

// Byte-slice numeric parsers. These accept exactly the inputs
// strconv.ParseInt/ParseUint (base 10) accept — the differential fuzzer
// FuzzScannerVsDecodeBatch pins the equivalence — without the string
// conversion the strconv API forces.

var (
	errSyntax = errors.New("invalid syntax")
	errRange  = errors.New("value out of range")
)

// parseUintBytes is strconv.ParseUint(string(b), 10, bitSize) without the
// string copy. A sign prefix is not permitted, matching strconv.
func parseUintBytes(b []byte, bitSize int) (uint64, error) {
	if len(b) == 0 {
		return 0, errSyntax
	}
	maxVal := uint64(1)<<uint(bitSize) - 1 // bitSize < 64 here; 16 in practice
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errSyntax
		}
		d := uint64(c - '0')
		if n > maxVal/10 {
			return 0, errRange
		}
		n *= 10
		if n > maxVal-d {
			return 0, errRange
		}
		n += d
	}
	return n, nil
}

// parseIntBytes is strconv.ParseInt(string(b), 10, bitSize) without the
// string copy.
func parseIntBytes(b []byte, bitSize int) (int64, error) {
	if len(b) == 0 {
		return 0, errSyntax
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, errSyntax
		}
	}
	cutoff := uint64(1) << uint(bitSize-1) // |min|; max is cutoff-1
	maxVal := cutoff
	if !neg {
		maxVal = cutoff - 1
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errSyntax
		}
		d := uint64(c - '0')
		if n > maxVal/10 {
			return 0, errRange
		}
		n *= 10
		if n > maxVal-d {
			return 0, errRange
		}
		n += d
	}
	if neg {
		return -int64(n-1) - 1, nil // avoids overflow at |min|
	}
	return int64(n), nil
}

// parseAddrBytes parses an IP address from bytes. Canonical dotted-quad
// IPv4 — the overwhelmingly common case in probe records — is parsed
// inline without allocating; anything else (IPv6, zones, malformed input)
// falls back to netip.ParseAddr so acceptance and errors match it exactly.
func parseAddrBytes(b []byte) (netip.Addr, error) {
	if a, ok := tryParseIPv4(b); ok {
		return a, nil
	}
	return netip.ParseAddr(string(b))
}

// tryParseIPv4 parses a canonical dotted quad: four decimal octets 0-255,
// 1-3 digits each, no leading zeros (netip rejects them too). Any doubt
// returns ok=false and the caller defers to netip.ParseAddr, so this can
// never accept or reject an input differently from the stdlib.
func tryParseIPv4(b []byte) (netip.Addr, bool) {
	var quad [4]byte
	field, val, digits := 0, 0, 0
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == '.' {
			if digits == 0 || field == 4 {
				return netip.Addr{}, false
			}
			quad[field] = byte(val)
			field++
			val, digits = 0, 0
			continue
		}
		c := b[i]
		if c < '0' || c > '9' {
			return netip.Addr{}, false
		}
		if digits > 0 && val == 0 {
			return netip.Addr{}, false // leading zero: let netip decide
		}
		val = val*10 + int(c-'0')
		digits++
		if val > 255 {
			return netip.Addr{}, false
		}
	}
	if field != 4 {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4(quad), true
}

// classFromBytes matches a class wire name without conversion. The
// comparisons compile to length-gated memequal — no allocation, no linear
// scan over a name table.
func classFromBytes(b []byte) (Class, bool) {
	switch {
	case string(b) == "intra-pod":
		return IntraPod, true
	case string(b) == "intra-dc":
		return IntraDC, true
	case string(b) == "inter-dc":
		return InterDC, true
	}
	return 0, false
}

// protoFromBytes matches a protocol wire name without conversion.
func protoFromBytes(b []byte) (Proto, bool) {
	switch {
	case string(b) == "tcp":
		return TCP, true
	case string(b) == "http":
		return HTTP, true
	}
	return 0, false
}

// qosFromBytes matches a QoS wire name without conversion.
func qosFromBytes(b []byte) (QoS, bool) {
	switch {
	case string(b) == "high":
		return QoSHigh, true
	case string(b) == "low":
		return QoSLow, true
	}
	return 0, false
}
