// Delta pinglists (§3.3 scale-out): when a topology or configuration
// change regenerates the fleet's pinglists, most servers' files change by
// only a handful of peer entries (or by nothing but the version header),
// yet the PR 1 protocol re-ships the whole file to every agent. A Delta is
// a versioned patch from one exact generation of a server's pinglist to
// another, keyed by the strong content ETags of both ends, so an agent
// holding the base generation can reconstruct the new file byte-for-byte
// without downloading it.
//
// The patch is an edit script over the peer sequence: ordered operations
// that either copy a run of peers from the base file or insert literal
// peers. Adds, removes and modifications all reduce to copy/insert runs,
// and because the script rebuilds the exact peer order, Marshal of the
// patched file is byte-identical to Marshal of the freshly generated one —
// which is what lets the ETag of the patched result be verified against
// the target ETag. A corrupted or stale delta can therefore never yield a
// wrong pinglist: verification fails and the caller falls back to a full
// fetch (pinned by FuzzDeltaPatchVsFull).
package pinglist

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"hash/maphash"
	"time"

	"pingmesh/internal/httpcache"
)

// DeltaVersion is the wire version of the delta document. Agents reject
// deltas with a different version and fall back to a full fetch, so the
// format can evolve without a flag day.
const DeltaVersion = 1

// Op is one edit-script operation. A copy op (Count > 0) copies Count
// peers from the base file starting at index From; an insert op (Count ==
// 0) appends its literal Peers. An op is never both.
type Op struct {
	From  int    `xml:"from,attr"`
	Count int    `xml:"count,attr"`
	Peers []Peer `xml:"Peer"`
}

// Delta is a patch from the base generation of one server's pinglist
// (identified by BaseETag) to the target generation (TargetETag). Server,
// Version and Generated are the target file's header fields; applying the
// delta reproduces the target file exactly.
type Delta struct {
	XMLName    xml.Name  `xml:"PinglistDelta"`
	V          int       `xml:"v,attr"`
	Server     string    `xml:"server,attr"`
	Version    string    `xml:"version,attr"`
	Generated  time.Time `xml:"generated,attr"`
	BaseETag   string    `xml:"base,attr"`
	TargetETag string    `xml:"target,attr"`
	Ops        []Op      `xml:"Op"`
}

// MarshalDelta renders the delta as XML, like Marshal.
func MarshalDelta(d *Delta) ([]byte, error) {
	generated, err := d.Generated.MarshalText()
	if err != nil {
		return nil, fmt.Errorf("pinglist: marshal delta: %w", err)
	}
	return appendDelta(make([]byte, 0, deltaSize(d, generated)), d, generated), nil
}

// Diff computes the delta that patches old into new. baseETag and
// targetETag are the strong ETags of the two files' Marshal outputs (the
// caller usually has them precomputed; DiffFiles computes them). Insert
// ops alias new.Peers rather than copy them.
func Diff(old, new *File, baseETag, targetETag string) (*Delta, error) {
	if old.Server != new.Server {
		return nil, fmt.Errorf("pinglist: diff across servers %q and %q", old.Server, new.Server)
	}
	return newDelta(new, baseETag, targetETag, editScript(old.Peers, new.Peers, nil, new.Peers)), nil
}

// DiffMarshaled is Diff for a base held only in marshaled form — the
// controller's generation ring — so that nothing is parsed to build a
// patch: base and target are Marshal outputs, target that of new, and the
// edit script is keyed on their peer lines. Marshal writes one line per
// peer and equal peers marshal to equal lines, so this is the script Diff
// computes from the parsed files. A base that is not Marshal output is an
// error. Neither body is copied or retained.
func DiffMarshaled(base, target []byte, new *File, baseETag, targetETag string) (*Delta, error) {
	baseServer, baseLines, baseHashes, err := peerLines(base)
	if err != nil {
		return nil, fmt.Errorf("pinglist: diff base: %w", err)
	}
	server, lines, hashes, err := peerLines(target)
	if err != nil {
		return nil, fmt.Errorf("pinglist: diff target: %w", err)
	}
	if len(lines) != len(new.Peers) {
		return nil, fmt.Errorf("pinglist: diff target: %d peer lines for %d peers", len(lines), len(new.Peers))
	}
	if !bytes.Equal(baseServer, server) {
		return nil, fmt.Errorf("pinglist: diff across servers %q and %q", baseServer, server)
	}
	same := func(i, j int) bool { return bytes.Equal(baseLines[i], lines[j]) }
	return newDelta(new, baseETag, targetETag, editScript(baseHashes, hashes, same, new.Peers)), nil
}

func newDelta(target *File, baseETag, targetETag string, ops []Op) *Delta {
	return &Delta{
		V:          DeltaVersion,
		Server:     target.Server,
		Version:    target.Version,
		Generated:  target.Generated,
		BaseETag:   baseETag,
		TargetETag: targetETag,
		Ops:        ops,
	}
}

// lineSeed seeds the line hashes. The edit script compares lines whose
// hashes match, so the script does not depend on it.
var lineSeed = maphash.MakeSeed()

// peerLines splits a marshaled pinglist into its server attribute (still
// escaped) and its peer lines, sub-slices of body, with a hash of each
// that the edit script keys on. Attribute values never hold a raw newline
// or quote — Marshal escapes both — so lines and the first quote are
// reliable separators.
func peerLines(body []byte) (server []byte, lines [][]byte, hashes []uint64, err error) {
	const open, closing = `<Pinglist server="`, "</Pinglist>\n"
	head, rest, _ := bytes.Cut(body, []byte("\n"))
	attrs, opened := bytes.CutPrefix(head, []byte(open))
	server, _, quoted := bytes.Cut(attrs, []byte(`"`))
	if !opened || !quoted {
		return nil, nil, nil, fmt.Errorf("not a marshaled pinglist")
	}
	if len(rest) == 0 && bytes.HasSuffix(body, []byte(">"+closing)) {
		return server, nil, nil, nil // no peers: the element closes on its header line
	}
	if !bytes.HasSuffix(rest, []byte("\n"+closing)) {
		return nil, nil, nil, fmt.Errorf("not a marshaled pinglist")
	}
	rest = rest[:len(rest)-len(closing)]
	n := bytes.Count(rest, []byte("\n"))
	lines, hashes = make([][]byte, 0, n), make([]uint64, 0, n)
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if !bytes.HasPrefix(line, []byte("  <Peer ")) || !bytes.HasSuffix(line, []byte("></Peer>")) {
			return nil, nil, nil, fmt.Errorf("peer line %d is not marshaled form", len(lines))
		}
		lines = append(lines, line)
		hashes = append(hashes, maphash.Bytes(lineSeed, line))
	}
	return server, lines, hashes, nil
}

// editScript is the edit script turning the sequence old into new, over
// whatever comparable key stands for a peer; peers[j] is the peer new[j]
// stands for, and insert ops are sub-slices of peers. Keys may collide —
// a hash of the peer's line — when same(i, j) tells whether old[i] and
// new[j], keys equal, are the same peer; nil same means equal keys are.
// The script is greedy and monotone: it walks both sequences forward,
// emitting maximal copy runs for shared stretches and literal inserts for
// everything else, which is near-minimal for the localized add / remove /
// modify churn that topology updates produce.
func editScript[K comparable](old, new []K, same func(i, j int) bool, peers []Peer) []Op {
	// first[k] is the lowest base position holding k, next[p] the next
	// position after p holding the same key (-1: none).
	first := make(map[K]int, len(old))
	next := make([]int, len(old))
	for p := len(old) - 1; p >= 0; p-- {
		next[p] = -1
		if q, ok := first[old[p]]; ok {
			next[p] = q
		}
		first[old[p]] = p
	}
	eq := func(i, j int) bool { return old[i] == new[j] && (same == nil || same(i, j)) }
	var ops []Op
	i := 0   // next base index a copy run may start at (monotone)
	ins := 0 // start of the pending insert run in new
	for j := 0; j < len(new); {
		// Lowest base position >= i holding this exact peer.
		k, ok := first[new[j]]
		for ok && (k < i || !eq(k, j)) {
			k = next[k]
			ok = k >= 0
		}
		if !ok {
			j++
			continue
		}
		if ins < j {
			ops = append(ops, Op{Peers: peers[ins:j:j]})
		}
		i = k
		for j < len(new) && i < len(old) && eq(i, j) {
			i++
			j++
		}
		ops = append(ops, Op{From: k, Count: i - k})
		ins = j
	}
	if ins < len(new) {
		ops = append(ops, Op{Peers: peers[ins:len(new):len(new)]})
	}
	return ops
}

// DiffFiles is Diff with the ETags computed here by marshaling both files.
func DiffFiles(old, new *File) (*Delta, error) {
	oldData, err := Marshal(old)
	if err != nil {
		return nil, err
	}
	newData, err := Marshal(new)
	if err != nil {
		return nil, err
	}
	return Diff(old, new, httpcache.ETagFor(oldData), httpcache.ETagFor(newData))
}

// Apply replays the delta's edit script over the base file and returns the
// reconstructed target file. It validates the script's shape and bounds
// but not the end-to-end result; use ApplyVerified for the checked form
// agents rely on.
func Apply(old *File, d *Delta) (*File, error) {
	n := 0
	for oi := range d.Ops {
		op := &d.Ops[oi]
		switch {
		case op.Count < 0:
			return nil, fmt.Errorf("pinglist: delta op %d: negative count", oi)
		case op.Count > 0 && len(op.Peers) > 0:
			return nil, fmt.Errorf("pinglist: delta op %d: both copy and insert", oi)
		case op.Count == 0 && len(op.Peers) == 0:
			return nil, fmt.Errorf("pinglist: delta op %d: empty", oi)
		case op.Count > 0 && (op.From < 0 || op.From+op.Count > len(old.Peers)):
			return nil, fmt.Errorf("pinglist: delta op %d: copy [%d,%d) out of base range %d",
				oi, op.From, op.From+op.Count, len(old.Peers))
		}
		n += op.Count + len(op.Peers)
	}
	f := &File{
		Server:    d.Server,
		Version:   d.Version,
		Generated: d.Generated,
		Peers:     make([]Peer, 0, n),
	}
	for oi := range d.Ops {
		op := &d.Ops[oi]
		if op.Count > 0 {
			f.Peers = append(f.Peers, old.Peers[op.From:op.From+op.Count]...)
		} else {
			f.Peers = append(f.Peers, op.Peers...)
		}
	}
	return f, nil
}

// ApplyVerified is the checked patch agents use: it rejects a delta whose
// wire version or base ETag doesn't match the cached file, applies the
// script, re-marshals the result and verifies the target ETag over the
// produced bytes. On success the returned bytes are guaranteed (up to
// content-hash collision) byte-identical to the freshly marshaled target
// file; on any mismatch the caller must fall back to a full fetch.
func ApplyVerified(old *File, oldETag string, d *Delta) (*File, []byte, error) {
	if d.V != DeltaVersion {
		return nil, nil, fmt.Errorf("pinglist: delta version %d, want %d", d.V, DeltaVersion)
	}
	if d.BaseETag != oldETag {
		return nil, nil, fmt.Errorf("pinglist: delta base %s does not match cached %s", d.BaseETag, oldETag)
	}
	f, err := Apply(old, d)
	if err != nil {
		return nil, nil, err
	}
	data, err := Marshal(f)
	if err != nil {
		return nil, nil, err
	}
	if etag := httpcache.ETagFor(data); etag != d.TargetETag {
		return nil, nil, fmt.Errorf("pinglist: patched file hashes to %s, delta targets %s", etag, d.TargetETag)
	}
	return f, data, nil
}
