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

// The reader behind Unmarshal and UnmarshalDelta. It accepts exactly the
// bytes appendFile and appendDelta write — their attribute order, their
// indentation and final newline, and only the entities xml.EscapeText
// emits — and validates while it reads, in one pass. A document it accepts
// re-marshals to its own bytes and passes Validate. Any other spelling of
// the same XML is rejected: ETags hash these bytes and DiffMarshaled
// trusts no other form, so no correct controller sends one. encoding/xml
// is the oracle the tests hold it to (FuzzUnmarshal, FuzzUnmarshalDelta).
//
// Nothing decoded aliases the input, so a caller may cache the result and
// reuse the body's buffer. Class, Proto and QoS are the probe vocabulary's
// own strings, and the addresses of one document share one allocation.

// The words a Peer's class, proto and qos attributes may carry.
var (
	classWords = [...]string{probe.IntraPod.String(), probe.IntraDC.String(), probe.InterDC.String()}
	protoWords = [...]string{probe.TCP.String(), probe.HTTP.String()}
	qosWords   = [...]string{probe.QoSHigh.String(), probe.QoSLow.String()}
)

// The shortest elements a canonical document can hold: they bound how many
// elements a body of a given length may claim.
const (
	emptyPeer = `<Peer addr="" port="" class="" proto="" qos="" interval="" payload=""></Peer>`
	emptyOp   = `<Op from="" count=""></Op>`
)

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
	if f.Peers = d.peerList("\n  <Peer"); f.Peers != nil {
		d.want("\n")
	}
	d.want("</Pinglist>\n")
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("pinglist: unmarshal: %w", err)
	}
	return f, nil
}

// UnmarshalDelta decodes a delta written by MarshalDelta. The peers it
// inserts pass Validate, and its server is not empty; whether its script
// fits a base is ApplyVerified's to check. A body in any other form is an
// error.
func UnmarshalDelta(data []byte) (*Delta, error) {
	d := decoder{data: data}
	d.want("<PinglistDelta")
	x := &Delta{V: int(d.number(` v="`, 0, math.MaxInt))}
	x.Server = d.text(` server="`)
	x.Version = d.text(` version="`)
	x.Generated = d.stamp(` generated="`)
	x.BaseETag = d.text(` base="`)
	x.TargetETag = d.text(` target="`)
	d.want(">")
	if x.Server == "" {
		d.fail("missing server attribute")
	}
	d.allocPeers()
	if n := d.count("<Op ", len(emptyOp)); n > 0 {
		x.Ops = make([]Op, 0, n)
	}
	for d.lit("\n  <Op") {
		op := Op{From: int(d.number(` from="`, 0, math.MaxInt))}
		op.Count = int(d.number(` count="`, 0, math.MaxInt))
		d.want(">")
		if op.Peers = d.peerList("\n    <Peer"); op.Peers != nil {
			d.want("\n  ")
		}
		d.want("</Op>")
		x.Ops = append(x.Ops, op)
	}
	if len(x.Ops) > 0 {
		d.want("\n")
	}
	d.want("</PinglistDelta>\n")
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("pinglist: unmarshal delta: %w", err)
	}
	return x, nil
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

// count returns how many times tag occurs in the document, refusing a
// count no canonical body of its length could hold elements of at least
// size bytes for, so a hostile body cannot make the decoder allocate far
// more than its own length.
func (d *decoder) count(tag string, size int) int {
	n := bytes.Count(d.data, []byte(tag))
	if n > len(d.data)/size {
		d.fail(fmt.Sprintf("%d %q tags in %d bytes", n, tag, len(d.data)))
		return 0
	}
	return n
}

// allocPeers sizes peers, ends and addrs for every peer the document
// holds. Each peer parsed opens with "<Peer ", so peers never outgrows
// this and every list peerList returns stays a window of it.
func (d *decoder) allocPeers() {
	if n := d.count("<Peer ", len(emptyPeer)); n > 0 {
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
func (d *decoder) word(prefix string, vocab []string) string {
	v := d.value(prefix)
	for _, w := range vocab {
		if string(v) == w {
			return w
		}
	}
	d.fail(fmt.Sprintf("%s%s\" is not in the vocabulary", prefix, v))
	return ""
}

// peerList reads the peers that each open with open, and returns them as
// a window of d.peers, nil when there are none.
func (d *decoder) peerList(open string) []Peer {
	start := len(d.peers)
	for d.lit(open) {
		d.peers = append(d.peers, d.peer())
	}
	if len(d.peers) == start {
		return nil
	}
	return d.peers[start:len(d.peers):len(d.peers)]
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
		Class:       d.word(` class="`, classWords[:]),
		Proto:       d.word(` proto="`, protoWords[:]),
		QoS:         d.word(` qos="`, qosWords[:]),
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
