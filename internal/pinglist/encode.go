package pinglist

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"strings"
)

// The append-based writers behind Marshal and MarshalDelta. Their output
// is byte-identical to xml.MarshalIndent(v, "", "  ") plus a newline —
// ETags hash these bytes, so the form may never drift. encoding/xml is
// only the oracle, in the tests: FuzzMarshalMatchesEncodingXML holds these
// writers to its encoder, and FuzzUnmarshal and FuzzUnmarshalDelta hold
// the reader in decode.go, which accepts nothing but this form, to its
// decoder. What the writers skip is encoding/xml's reflection and
// per-token buffering: a controller regenerating a fleet's files writes
// each one as plain appends.

// appendFile appends the XML form of f, generated being the file's
// already-marshaled timestamp.
func appendFile(dst []byte, f *File, generated []byte) []byte {
	dst = appendAttr(append(dst, "<Pinglist"...), "server", f.Server)
	dst = append(append(append(dst, ` generated="`...), generated...), '"')
	dst = append(appendAttr(dst, "version", f.Version), '>')
	dst = appendPeers(dst, f.Peers, "\n  ")
	if len(f.Peers) > 0 {
		dst = append(dst, '\n')
	}
	return append(dst, "</Pinglist>\n"...)
}

// appendDelta appends the XML form of d.
func appendDelta(dst []byte, d *Delta, generated []byte) []byte {
	dst = appendIntAttr(append(dst, "<PinglistDelta"...), "v", int64(d.V))
	dst = appendAttr(dst, "server", d.Server)
	dst = appendAttr(dst, "version", d.Version)
	dst = append(append(append(dst, ` generated="`...), generated...), '"')
	dst = appendAttr(dst, "base", d.BaseETag)
	dst = append(appendAttr(dst, "target", d.TargetETag), '>')
	for i := range d.Ops {
		op := &d.Ops[i]
		dst = appendIntAttr(append(dst, "\n  <Op"...), "from", int64(op.From))
		dst = append(appendIntAttr(dst, "count", int64(op.Count)), '>')
		dst = appendPeers(dst, op.Peers, "\n    ")
		if len(op.Peers) > 0 {
			dst = append(dst, "\n  "...)
		}
		dst = append(dst, "</Op>"...)
	}
	if len(d.Ops) > 0 {
		dst = append(dst, '\n')
	}
	return append(dst, "</PinglistDelta>\n"...)
}

// appendPeers appends one Peer element per peer, each preceded by indent.
func appendPeers(dst []byte, peers []Peer, indent string) []byte {
	for i := range peers {
		p := &peers[i]
		dst = appendAttr(append(append(dst, indent...), "<Peer"...), "addr", p.Addr)
		dst = appendIntAttr(dst, "port", int64(p.Port))
		dst = appendAttr(dst, "class", p.Class)
		dst = appendAttr(dst, "proto", p.Proto)
		dst = appendAttr(dst, "qos", p.QoS)
		dst = appendIntAttr(dst, "interval", int64(p.IntervalSec))
		dst = appendIntAttr(dst, "payload", int64(p.PayloadLen))
		dst = append(dst, "></Peer>"...)
	}
	return dst
}

func appendIntAttr(dst []byte, name string, v int64) []byte {
	dst = append(append(append(dst, ' '), name...), `="`...)
	return append(strconv.AppendInt(dst, v, 10), '"')
}

// appendAttr appends ` name="value"`. Printable ASCII free of XML
// metacharacters — every value the generator produces — is copied as is;
// anything else goes through encoding/xml's own escaper.
func appendAttr(dst []byte, name, value string) []byte {
	dst = append(append(append(dst, ' '), name...), `="`...)
	if plainASCII(value) {
		dst = append(dst, value...)
	} else {
		var esc bytes.Buffer
		xml.EscapeText(&esc, []byte(value))
		dst = append(dst, esc.Bytes()...)
	}
	return append(dst, '"')
}

// plainASCII reports whether s is its own XML-escaped form.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '&', c == '\'', c == '<', c == '>':
			return false
		}
	}
	return true
}

// fileSize and deltaSize are the exact lengths appendFile and appendDelta
// produce when no value but a delta's ETags needs escaping (those are
// quoted by construction, and a quote is written &#34;), so a marshaled
// body carries no slack capacity into whatever retains it. Any other
// escaped value just makes append grow the buffer.
func fileSize(f *File, generated []byte) int {
	n := len(`<Pinglist server="" generated="" version=""></Pinglist>`) + 1 +
		len(f.Server) + len(generated) + len(f.Version)
	if len(f.Peers) > 0 {
		n += peersSize(f.Peers, len("\n  ")) + 1
	}
	return n
}

func deltaSize(d *Delta, generated []byte) int {
	n := len(`<PinglistDelta v="" server="" version="" generated="" base="" target=""></PinglistDelta>`) + 1 +
		intLen(int64(d.V)) + len(d.Server) + len(d.Version) + len(generated) +
		len(d.BaseETag) + 4*strings.Count(d.BaseETag, `"`) +
		len(d.TargetETag) + 4*strings.Count(d.TargetETag, `"`)
	for i := range d.Ops {
		op := &d.Ops[i]
		n += len("\n  "+`<Op from="" count=""></Op>`) + intLen(int64(op.From)) + intLen(int64(op.Count))
		if len(op.Peers) > 0 {
			n += peersSize(op.Peers, len("\n    ")) + len("\n  ")
		}
	}
	if len(d.Ops) > 0 {
		n++
	}
	return n
}

func peersSize(peers []Peer, indent int) int {
	n := len(peers) * (indent + len(`<Peer addr="" port="" class="" proto="" qos="" interval="" payload=""></Peer>`))
	for i := range peers {
		p := &peers[i]
		n += len(p.Addr) + len(p.Class) + len(p.Proto) + len(p.QoS) +
			intLen(int64(p.Port)) + intLen(int64(p.IntervalSec)) + intLen(int64(p.PayloadLen))
	}
	return n
}

// intLen is len(strconv.FormatInt(v, 10)).
func intLen(v int64) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}
