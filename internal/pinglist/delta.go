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
	"encoding/xml"
	"fmt"
	"strings"
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
	return newDelta(new, baseETag, targetETag, editScript(old.Peers, new.Peers, new.Peers)), nil
}

// DiffMarshaled is Diff for a base held only in marshaled form — the
// controller's generation ring — so that nothing is parsed to build a
// patch: base and target are Marshal outputs, target that of new, and the
// edit script is keyed on their peer lines. Marshal writes one line per
// peer and equal peers marshal to equal lines, so this is the script Diff
// computes from the parsed files. A base that is not Marshal output is an
// error.
func DiffMarshaled(base, target string, new *File, baseETag, targetETag string) (*Delta, error) {
	baseServer, baseLines, err := peerLines(base)
	if err != nil {
		return nil, fmt.Errorf("pinglist: diff base: %w", err)
	}
	server, lines, err := peerLines(target)
	if err != nil {
		return nil, fmt.Errorf("pinglist: diff target: %w", err)
	}
	if len(lines) != len(new.Peers) {
		return nil, fmt.Errorf("pinglist: diff target: %d peer lines for %d peers", len(lines), len(new.Peers))
	}
	if baseServer != server {
		return nil, fmt.Errorf("pinglist: diff across servers %q and %q", baseServer, server)
	}
	return newDelta(new, baseETag, targetETag, editScript(baseLines, lines, new.Peers)), nil
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

// peerLines splits a marshaled pinglist into its server attribute (still
// escaped) and its peer lines. Attribute values never hold a raw newline
// or quote — Marshal escapes both — so lines and the first quote are
// reliable separators.
func peerLines(body string) (server string, lines []string, err error) {
	const open, closing = `<Pinglist server="`, "</Pinglist>\n"
	head, rest, _ := strings.Cut(body, "\n")
	attrs, opened := strings.CutPrefix(head, open)
	server, _, quoted := strings.Cut(attrs, `"`)
	if !opened || !quoted {
		return "", nil, fmt.Errorf("not a marshaled pinglist")
	}
	if rest == "" && strings.HasSuffix(body, ">"+closing) {
		return server, nil, nil // no peers: the element closes on its header line
	}
	if !strings.HasSuffix(rest, "\n"+closing) {
		return "", nil, fmt.Errorf("not a marshaled pinglist")
	}
	rest = rest[:len(rest)-len(closing)]
	lines = make([]string, 0, strings.Count(rest, "\n"))
	for rest != "" {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if !strings.HasPrefix(line, "  <Peer ") || !strings.HasSuffix(line, "></Peer>") {
			return "", nil, fmt.Errorf("peer line %d is not marshaled form", len(lines))
		}
		lines = append(lines, line)
	}
	return server, lines, nil
}

// editScript is the edit script turning the sequence old into new, over
// whatever comparable key stands for a peer; peers[j] is the peer new[j]
// stands for, and insert ops are sub-slices of peers. The script is greedy
// and monotone: it walks both sequences forward, emitting maximal copy
// runs for shared stretches and literal inserts for everything else, which
// is near-minimal for the localized add / remove / modify churn that
// topology updates produce.
func editScript[K comparable](old, new []K, peers []Peer) []Op {
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
	var ops []Op
	i := 0   // next base index a copy run may start at (monotone)
	ins := 0 // start of the pending insert run in new
	for j := 0; j < len(new); {
		// Lowest base position >= i holding this exact peer.
		k, ok := first[new[j]]
		for ok && k < i {
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
		for j < len(new) && i < len(old) && old[i] == new[j] {
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
