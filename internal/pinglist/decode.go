package pinglist

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"time"
	"unicode/utf8"

	"pingmesh/internal/probe"
)

// The reader behind Unmarshal. It accepts exactly the bytes appendFile
// writes — its attribute order, its indentation and final newline, and
// only the entities xml.EscapeText emits — and validates while it reads,
// in one pass. A document it accepts re-marshals to its own bytes and
// passes Validate. Any other spelling of the same XML is rejected: ETags
// hash these bytes and a delta's base is the Marshal body of the decoded
// file, so no correct controller sends one. encoding/xml is the oracle
// the tests hold it to (FuzzUnmarshal).
//
// Nothing decoded aliases the input, so a caller may cache the result and
// reuse the body's buffer. Class, Proto and QoS are the probe vocabulary's
// own strings, and the addresses of one document share one allocation.

// The words a Peer's class, proto and qos attributes may carry.
var (
	classWords = vocab("class", probe.IntraPod, probe.IntraDC, probe.InterDC)
	protoWords = vocab("proto", probe.TCP, probe.HTTP)
	qosWords   = vocab("qos", probe.QoSHigh, probe.QoSLow)
)

// word is one vocabulary word and the attribute it spells, as Marshal
// writes it: the words need no escaping.
type word struct{ value, attr string }

func vocab(name string, words ...fmt.Stringer) []word {
	v := make([]word, len(words))
	for i, w := range words {
		v[i] = word{w.String(), " " + name + `="` + w.String() + `"`}
	}
	return v
}

// emptyPeer is the shortest peer element a canonical document can hold: it
// bounds how many peers a body of a given length may claim.
const emptyPeer = `<Peer addr="" port="" class="" proto="" qos="" interval="" payload=""></Peer>`

// entities are the escapes xml.EscapeText writes and the bytes they stand
// for.
var entities = [...]struct {
	esc string
	c   byte
}{{"&#34;", '"'}, {"&#39;", '\''}, {"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'},
	{"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'}}

// decoder is a cursor over one document. Its first error sticks: every
// later read returns a zero value. Peer addresses are unescaped into
// addrs, peer i's ending at ends[i], and become strings once the whole
// document has been read; peers backs every Peer the document holds.
type decoder struct {
	data  []byte
	off   int
	err   error
	peers []Peer
	addrs []byte
	ends  []int
}

// Unmarshal decodes a pinglist written by Marshal. The file it returns
// passes Validate; a body in any other form is an error.
func Unmarshal(data []byte) (*File, error) {
	d := decoder{data: data}
	d.want("<Pinglist")
	f := &File{}
	f.Server = d.text(` server="`)
	f.Generated = d.stamp(` generated="`)
	f.Version = d.text(` version="`)
	d.want(">")
	if f.Server == "" {
		d.fail("missing server attribute")
	}
	d.allocPeers()
	for d.lit("\n  <Peer") {
		d.peers = append(d.peers, d.peer())
	}
	if len(d.peers) > 0 {
		f.Peers = d.peers
		d.want("\n")
	}
	d.want("</Pinglist>\n")
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("pinglist: unmarshal: %w", err)
	}
	return f, nil
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: %s", d.off, what)
	}
}

// lit consumes s if the input continues with it.
func (d *decoder) lit(s string) bool {
	if d.err != nil || len(d.data)-d.off < len(s) || string(d.data[d.off:d.off+len(s)]) != s {
		return false
	}
	d.off += len(s)
	return true
}

// want consumes s, which the input must continue with.
func (d *decoder) want(s string) {
	if !d.lit(s) {
		d.fail(fmt.Sprintf("want %q", s))
	}
}

// allocPeers sizes peers, ends and addrs for every peer the document
// holds. Each peer parsed opens with "<Peer ", so peers never outgrows
// this. A count no canonical body of the document's length could hold is
// refused, so a hostile body cannot make the decoder allocate far more
// than its own length.
func (d *decoder) allocPeers() {
	n := bytes.Count(d.data, []byte("<Peer "))
	if n > len(d.data)/len(emptyPeer) {
		d.fail(fmt.Sprintf("%d peers in %d bytes", n, len(d.data)))
		return
	}
	if n > 0 {
		d.peers = make([]Peer, 0, n)
		d.ends = make([]int, 0, n)
		d.addrs = make([]byte, 0, n*len("255.255.255.255"))
	}
}

// value reads prefix — ` name="` — and the attribute value after it up to
// the closing quote, still escaped: a canonical value holds no raw quote.
func (d *decoder) value(prefix string) []byte {
	d.want(prefix)
	if d.err != nil {
		return nil
	}
	rest := d.data[d.off:]
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		d.fail("unterminated attribute")
		return nil
	}
	d.off += i + 1
	return rest[:i]
}

// text reads a string attribute.
func (d *decoder) text(prefix string) string {
	var buf [64]byte
	v := d.value(prefix)
	s, ok := unescape(buf[:0], v)
	if !ok {
		d.fail(fmt.Sprintf("%s%s\" is not xml.EscapeText output", prefix, v))
		return ""
	}
	return string(s)
}

// stamp reads a timestamp in the form time.Time.MarshalText writes.
func (d *decoder) stamp(prefix string) time.Time {
	v := d.value(prefix)
	if d.err != nil {
		return time.Time{}
	}
	var t time.Time
	var buf [64]byte
	if t.UnmarshalText(v) != nil || string(t.AppendFormat(buf[:0], time.RFC3339Nano)) != string(v) {
		d.fail(fmt.Sprintf("bad timestamp %q", v))
	}
	return t
}

// number reads a decimal in strconv.AppendInt's form, within [lo, hi].
func (d *decoder) number(prefix string, lo, hi uint64) uint64 {
	v := d.value(prefix)
	if d.err != nil {
		return 0
	}
	var n uint64
	ok := len(v) > 0 && (len(v) == 1 || v[0] != '0')
	for _, c := range v {
		if c < '0' || c > '9' || n > (hi-uint64(c-'0'))/10 {
			ok = false
			break
		}
		n = n*10 + uint64(c-'0')
	}
	if !ok || n < lo {
		d.fail(fmt.Sprintf("%s%s\" is not a number in [%d, %d]", prefix, v, lo, hi))
	}
	return n
}

// word reads an attribute that must be one of vocab's words, and returns
// that word.
func (d *decoder) word(prefix string, vocab []word) string {
	v := d.value(prefix)
	for i := range vocab {
		if string(v) == vocab[i].value {
			return vocab[i].value
		}
	}
	d.fail(fmt.Sprintf("%s%s\" is not in the vocabulary", prefix, v))
	return ""
}

// peer reads one Peer element after its opening "<Peer". Its address goes
// to d.addrs; finish sets Addr.
func (d *decoder) peer() Peer {
	var ok bool
	if d.addrs, ok = unescape(d.addrs, d.value(` addr="`)); !ok {
		d.fail("addr is not xml.EscapeText output")
	}
	d.ends = append(d.ends, len(d.addrs))
	p := Peer{
		Port:        uint16(d.number(` port="`, 1, math.MaxUint16)),
		Class:       d.word(` class="`, classWords),
		Proto:       d.word(` proto="`, protoWords),
		QoS:         d.word(` qos="`, qosWords),
		IntervalSec: int(d.number(` interval="`, 1, math.MaxInt)),
		PayloadLen:  int(d.number(` payload="`, 0, math.MaxInt)),
	}
	d.want("></Peer>")
	return p
}

// finish checks that the document ended with its closing tag, then gives
// every peer its address, each a slice of one string holding them all.
func (d *decoder) finish() error {
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return d.err
	}
	all, start := string(d.addrs), 0
	for i := range d.peers {
		p := &d.peers[i]
		p.Addr, start = all[start:d.ends[i]], d.ends[i]
		if _, err := netip.ParseAddr(p.Addr); err != nil {
			return fmt.Errorf("peer %d: bad addr %q", i, p.Addr)
		}
	}
	return nil
}

// unescape appends the text v stands for to dst. v must be what
// xml.EscapeText writes: the entities it emits for the bytes it escapes,
// and every other rune raw, valid UTF-8 and an XML character. Any other
// spelling would marshal back to different bytes.
func unescape(dst, v []byte) ([]byte, bool) {
	for i := 0; i < len(v); {
		switch c := v[i]; {
		case c == '&':
			e := entity(v[i:])
			if e < 0 {
				return dst, false
			}
			dst = append(dst, entities[e].c)
			i += len(entities[e].esc)
		case c < utf8.RuneSelf:
			if c < 0x20 || c == '"' || c == '\'' || c == '<' || c == '>' {
				return dst, false
			}
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(v[i:])
			if r == utf8.RuneError && n == 1 || r == 0xFFFE || r == 0xFFFF {
				return dst, false
			}
			dst = append(dst, v[i:i+n]...)
			i += n
		}
	}
	return dst, true
}

// entity returns the index in entities of the escape v opens with, or -1.
func entity(v []byte) int {
	for i, e := range entities {
		if len(v) >= len(e.esc) && string(v[:len(e.esc)]) == e.esc {
			return i
		}
	}
	return -1
}
