// Package probe defines the latency measurement record that flows through
// the whole Pingmesh pipeline — produced by agents, uploaded to Cosmos as
// PMB1 batches (binary.go: per-peer sketches plus raw records; CSV is the
// local log's format and the import/export codec), and consumed by SCOPE
// analysis jobs — together with the probe classification vocabulary (ping
// class, protocol, QoS class) and the window grid agents and analysis share.
package probe

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Class says which of the three complete graphs a probe belongs to
// (§3.3.1 of the paper).
type Class int

// Probe classes.
const (
	IntraPod Class = iota // servers under the same ToR
	IntraDC               // ToR-level complete graph within a DC
	InterDC               // DC-level complete graph
)

var classNames = [...]string{"intra-pod", "intra-dc", "inter-dc"}

// String returns the wire name of the class.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass parses the wire name of a class.
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if n == s {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("probe: unknown class %q", s)
}

// Proto is the probing protocol. Pingmesh uses TCP and HTTP because those
// are what the applications use (§3.4.1).
type Proto int

// Probing protocols.
const (
	TCP Proto = iota
	HTTP
)

// String returns the wire name of the protocol.
func (p Proto) String() string {
	if p == HTTP {
		return "http"
	}
	return "tcp"
}

// ParseProto parses the wire name of a protocol.
func ParseProto(s string) (Proto, error) {
	switch s {
	case "tcp":
		return TCP, nil
	case "http":
		return HTTP, nil
	}
	return 0, fmt.Errorf("probe: unknown proto %q", s)
}

// QoS is the differentiated-service class of the probe (the QoS monitoring
// extension in §6.2).
type QoS int

// QoS classes.
const (
	QoSHigh QoS = iota
	QoSLow
)

// String returns the wire name of the QoS class.
func (q QoS) String() string {
	if q == QoSLow {
		return "low"
	}
	return "high"
}

// ParseQoS parses the wire name of a QoS class.
func ParseQoS(s string) (QoS, error) {
	switch s {
	case "high":
		return QoSHigh, nil
	case "low":
		return QoSLow, nil
	}
	return 0, fmt.Errorf("probe: unknown qos %q", s)
}

// Record is one probe outcome. A Record with empty Err is a successful
// probe; RTT then holds the TCP connection setup round-trip time (which may
// embed SYN retransmit timeouts — the signal the drop-rate heuristic keys
// on), and PayloadRTT the optional payload echo round trip (0 when the
// probe carried no payload).
type Record struct {
	Start      time.Time
	Src        netip.Addr
	SrcPort    uint16
	Dst        netip.Addr
	DstPort    uint16
	Class      Class
	Proto      Proto
	QoS        QoS
	PayloadLen int
	RTT        time.Duration
	PayloadRTT time.Duration
	Err        string // empty on success
}

// Success reports whether the probe completed.
func (r *Record) Success() bool { return r.Err == "" }

// CSVHeader is the first line of every latency data file uploaded to the
// store.
const CSVHeader = "start_unix_ns,src,sport,dst,dport,class,proto,qos,payload,rtt_ns,payload_rtt_ns,err"

// AppendCSV appends the CSV encoding of r (without trailing newline) to b
// and returns the extended slice. It allocates nothing beyond growth of b:
// addresses are appended with netip.Addr.AppendTo instead of String.
func (r *Record) AppendCSV(b []byte) []byte {
	b = strconv.AppendInt(b, r.Start.UnixNano(), 10)
	b = append(b, ',')
	b = appendAddr(b, r.Src)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.SrcPort), 10)
	b = append(b, ',')
	b = appendAddr(b, r.Dst)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.DstPort), 10)
	b = append(b, ',')
	b = append(b, r.Class.String()...)
	b = append(b, ',')
	b = append(b, r.Proto.String()...)
	b = append(b, ',')
	b = append(b, r.QoS.String()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PayloadLen), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.RTT), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PayloadRTT), 10)
	b = append(b, ',')
	b = append(b, sanitizeErr(r.Err)...)
	return b
}

// MarshalCSV returns the CSV encoding of r.
func (r *Record) MarshalCSV() string { return string(r.AppendCSV(nil)) }

// appendAddr appends the textual form of a. netip.Addr.AppendTo appends
// nothing for the zero Addr, while String returns "invalid IP"; encode the
// latter so the wire bytes stay identical to the pre-AppendTo encoder.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, "invalid IP"...)
	}
	return a.AppendTo(b)
}

func sanitizeErr(s string) string {
	if strings.ContainsAny(s, ",\n\r") {
		s = strings.Map(func(r rune) rune {
			switch r {
			case ',', '\n', '\r':
				return ';'
			}
			return r
		}, s)
	}
	return s
}

// ParseCSV parses one CSV line produced by AppendCSV. It is the
// convenience single-line API; bulk decoding should use Scanner (or
// DecodeBatch), which parses in place without this function's per-call
// string-to-bytes copy.
func ParseCSV(line string) (Record, error) {
	var s Scanner
	if err := s.parseLine([]byte(line)); err != nil {
		return Record{}, err
	}
	return s.rec, nil
}

// AppendBatch appends the CSV document encoding of recs (header line plus
// one line per record) to dst and returns the extended slice. Callers that
// upload repeatedly should reuse dst across batches so steady-state
// encoding allocates nothing.
func AppendBatch(dst []byte, recs []Record) []byte {
	dst = append(dst, CSVHeader...)
	dst = append(dst, '\n')
	for i := range recs {
		dst = recs[i].AppendCSV(dst)
		dst = append(dst, '\n')
	}
	return dst
}

// EncodeBatch encodes records as a CSV document with header.
func EncodeBatch(recs []Record) []byte {
	return AppendBatch(make([]byte, 0, 64+len(recs)*96), recs)
}

// DecodeBatch decodes a CSV document produced by EncodeBatch. Lines that
// fail to parse are returned in errs by line number without aborting the
// batch, mirroring how the analysis pipeline skips corrupt rows.
//
// DecodeBatch is implemented on Scanner and kept for callers that want the
// records materialized; the streaming pipeline (scope workers) drives the
// Scanner directly and never builds the slice.
func DecodeBatch(data []byte) (recs []Record, errs []error) {
	// Size the result once from the line count (slight overcount: header and
	// blank lines) so appending never reallocates mid-decode.
	if n := bytes.Count(data, []byte{'\n'}) + 1; n > 1 {
		recs = make([]Record, 0, n)
	}
	var sc Scanner
	sc.Reset(data)
	for sc.Scan() {
		if err := sc.RowErr(); err != nil {
			errs = append(errs, fmt.Errorf("line %d: %w", sc.Line(), err))
			continue
		}
		recs = append(recs, sc.rec)
	}
	return recs, errs
}
