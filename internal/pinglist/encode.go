package pinglist

import (
	"bytes"
	"encoding/xml"
	"strconv"
)

// The append-based writer behind Marshal. Its output is byte-identical
// to xml.MarshalIndent(f, "", "  ") plus a newline — ETags hash these
// bytes, and a delta's base is the Marshal body of the agent's cached
// file, so the form may never drift. encoding/xml is only the oracle, in
// the tests: FuzzMarshalMatchesEncodingXML holds this writer to its
// encoder, and FuzzUnmarshal holds the reader in decode.go, which accepts
// nothing but this form, to its decoder. What the writer skips is
// encoding/xml's reflection and per-token buffering: a controller
// regenerating a fleet's files writes each one as plain appends.

// appendFile appends the XML form of f, generated being the file's
// already-marshaled timestamp.
func appendFile(dst []byte, f *File, generated []byte) []byte {
	dst = appendAttr(append(dst, "<Pinglist"...), "server", f.Server)
	dst = append(append(append(dst, ` generated="`...), generated...), '"')
	dst = append(appendAttr(dst, "version", f.Version), '>')
	for i := range f.Peers {
		p := &f.Peers[i]
		dst = appendAttr(append(dst, "\n  <Peer"...), "addr", p.Addr)
		dst = appendIntAttr(dst, "port", int64(p.Port))
		dst = appendWord(dst, "class", p.Class, classWords)
		dst = appendWord(dst, "proto", p.Proto, protoWords)
		dst = appendWord(dst, "qos", p.QoS, qosWords)
		dst = appendIntAttr(dst, "interval", int64(p.IntervalSec))
		dst = appendIntAttr(dst, "payload", int64(p.PayloadLen))
		dst = append(dst, "></Peer>"...)
	}
	if len(f.Peers) > 0 {
		dst = append(dst, '\n')
	}
	return append(dst, "</Pinglist>\n"...)
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

// appendWord is appendAttr for an attribute whose value is usually one of
// vocab's words: such a value needs no escaping, so its attribute is
// copied whole, without the scan.
func appendWord(dst []byte, name, value string, vocab []word) []byte {
	for i := range vocab {
		if value == vocab[i].value {
			return append(dst, vocab[i].attr...)
		}
	}
	return appendAttr(dst, name, value)
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

// fileSize is the exact length appendFile produces when no value needs
// escaping, so a marshaled body carries no slack capacity into whatever
// retains it. An escaped value just makes append grow the buffer.
func fileSize(f *File, generated []byte) int {
	n := len(`<Pinglist server="" generated="" version=""></Pinglist>`) + 1 +
		len(f.Server) + len(generated) + len(f.Version)
	if len(f.Peers) > 0 {
		n += len(f.Peers)*len("\n  "+emptyPeer) + 1
	}
	for i := range f.Peers {
		p := &f.Peers[i]
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
