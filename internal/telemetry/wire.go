// Package telemetry is Pingmesh's fleet-scale self-monitoring plane: the
// §3.5 Perfcounter Aggregator grown from an in-process callback loop into
// a million-agent metrics pipeline. Agents encode their metrics.Registry
// as PMT1 reports — varint counter deltas against the last acknowledged
// snapshot, plus histograms as the sparse bucket runs of the shared
// latency layout — and ship them to a Collector, which folds them into
// fleet rollups keyed by the DC/podset/pod scope hierarchy and keeps the
// results in fixed-capacity ring-buffer time series. Counters sum exactly
// and histograms merge bucket-for-bucket, so a fleet-wide P99 is a
// bit-exact merge of every agent's observations, never an average of
// percentiles.
package telemetry

import (
	"encoding/binary"
	"errors"

	"pingmesh/internal/metrics"
)

// Binary wire format ("PMT1").
//
// One report carries one agent's metric activity since its last
// acknowledged report. Layout (all integers are encoding/binary varints —
// "uv" unsigned, "v" signed zig-zag):
//
//	report  := "PMT1" payloadLen:uv payload
//	payload := srcLen:uv src scopeLen:uv scope seq:uv base:uv now_ns:v
//	           nCounters:uv counter* nGauges:uv gauge* nHists:uv hist*
//	counter := name delta:uv                 // value increment since base
//	gauge   := name delta:v                  // signed change since base
//	hist    := name runs                     // the one histogram wire form of
//	                                         // internal/metrics (runs.go): new
//	                                         // observations per bucket, with
//	                                         // sum = sumDelta, min/max = cumMin/cumMax
//	name    := prefixLen:uv suffixLen:uv suffix
//
// Names are front-coded against the previously emitted name of the same
// section (registries visit in sorted order, so "agent.uploads_ok" after
// "agent.upload_errors" costs its suffix). Metrics with no activity since
// base are simply absent — absence means a zero delta, which is what makes
// a steady-state report a few bytes per metric rather than a few bytes per
// metric per bucket.
//
// Delta/ack contract: seq numbers a report, base names the last report the
// collector acknowledged applying. Deltas are always computed against the
// *acked* base snapshot, not the last transmitted one, so a lost report is
// superseded — not lost — by the next one, which re-carries its activity.
// base == 0 declares the report self-contained ("fold as-is"): the first
// report of a fresh encoder, an agent restart, or a post-resync rebase.
// Histogram sum ships as a delta (sums are additive); min/max ship as
// cumulative values because they only fold idempotently (AddTallies takes
// the min/max of what it has and what arrives).
//
// Versioning: the trailing '1' is the version. A future format bumps it to
// "PMT2"; old parsers fail the magic check instead of misparsing.

const telemetryMagic = "PMT1"

// Wire validation limits. maxWireCount matches the histogram codec's bound:
// no decoded report may smuggle absurd totals into the rollups.
const (
	maxIDLen     = 256
	maxNameLen   = 512
	maxWireCount = 1 << 48
)

var (
	errBadReportHeader = errors.New("telemetry: bad report header")
	errBadReport       = errors.New("telemetry: corrupt report")
	errParserPhase     = errors.New("telemetry: parser sections read out of order")
)

// ReportBuilder assembles one PMT1 report. Counters, gauges, and
// histograms may be added in any interleaving (the builder keeps one
// buffer per section and assembles them at Finish), which lets a
// metrics.Registry visitor emit in one pass over its name-ordered walk.
// All buffers are reused across Begin/Finish cycles, so a steady-state
// encode allocates nothing. The zero value is ready to use.
type ReportBuilder struct {
	hdr              []byte // src scope seq base now, encoded at Begin
	cbuf, gbuf, hbuf []byte
	cn, gn, hn       int
	cprev            []byte // last emitted name per section, for front-coding
	gprev            []byte
	hprev            []byte
	out              []byte

	hist metrics.RunEncoder // the open hist entry
}

// Begin starts a report, discarding any previous state. src identifies the
// agent, scope is its position in the DC/podset/pod hierarchy (e.g.
// "d0.s1.p2", "" for unscoped; the collector refuses a path with an empty
// segment or one that starts with its root level's name, "fleet"), seq
// numbers this report, base is the last acked seq the deltas are computed
// against (0 = self-contained), and nowNS timestamps it.
func (b *ReportBuilder) Begin(src, scope string, seq, base uint64, nowNS int64) {
	b.hdr = b.hdr[:0]
	b.hdr = binary.AppendUvarint(b.hdr, uint64(len(src)))
	b.hdr = append(b.hdr, src...)
	b.hdr = binary.AppendUvarint(b.hdr, uint64(len(scope)))
	b.hdr = append(b.hdr, scope...)
	b.hdr = binary.AppendUvarint(b.hdr, seq)
	b.hdr = binary.AppendUvarint(b.hdr, base)
	b.hdr = binary.AppendVarint(b.hdr, nowNS)
	b.cbuf, b.gbuf, b.hbuf = b.cbuf[:0], b.gbuf[:0], b.hbuf[:0]
	b.cn, b.gn, b.hn = 0, 0, 0
	b.cprev, b.gprev, b.hprev = b.cprev[:0], b.gprev[:0], b.hprev[:0]
}

// Counter adds one counter entry. Skip zero deltas: absence means zero.
func (b *ReportBuilder) Counter(name string, delta uint64) {
	b.cbuf, b.cprev = appendFrontCoded(b.cbuf, b.cprev, name)
	b.cbuf = binary.AppendUvarint(b.cbuf, delta)
	b.cn++
}

// Gauge adds one gauge entry carrying the signed change since base.
func (b *ReportBuilder) Gauge(name string, delta int64) {
	b.gbuf, b.gprev = appendFrontCoded(b.gbuf, b.gprev, name)
	b.gbuf = binary.AppendVarint(b.gbuf, delta)
	b.gn++
}

// BeginHist opens a histogram entry: the sum of new observations (a
// delta), and the agent's cumulative min/max (folded idempotently on the
// collector). Follow with Bucket calls in ascending index order, then
// EndHist.
func (b *ReportBuilder) BeginHist(name string, sumDelta, cumMin, cumMax int64) {
	b.hbuf, b.hprev = appendFrontCoded(b.hbuf, b.hprev, name)
	b.hbuf, b.hist = metrics.BeginRuns(b.hbuf, sumDelta, cumMin, cumMax)
}

// Bucket adds n new observations in bucket index of the shared latency
// layout. Indexes must strictly ascend within one histogram; n must be
// positive.
func (b *ReportBuilder) Bucket(index int, n uint64) {
	b.hbuf = b.hist.Run(b.hbuf, index, n)
}

// EndHist closes the open histogram. One that received no Bucket calls is
// emitted as an empty entry (nRuns = 0, tallies dropped) — harmless, but
// callers should skip unchanged histograms entirely.
func (b *ReportBuilder) EndHist() {
	b.hbuf = b.hist.End(b.hbuf)
	b.hn++
}

// Finish assembles and returns the report. The returned slice is owned by
// the builder and valid until the next Begin or Finish.
func (b *ReportBuilder) Finish() []byte {
	out := append(b.out[:0], telemetryMagic...)
	payloadStart := len(out)
	out = append(out, b.hdr...)
	out = binary.AppendUvarint(out, uint64(b.cn))
	out = append(out, b.cbuf...)
	out = binary.AppendUvarint(out, uint64(b.gn))
	out = append(out, b.gbuf...)
	out = binary.AppendUvarint(out, uint64(b.hn))
	out = append(out, b.hbuf...)
	out = spliceUvarint(out, payloadStart, uint64(len(out)-payloadStart))
	b.out = out
	return out
}

// spliceUvarint inserts uvarint(v) at offset at: append the varint
// (growing buf by its width), shift the tail right with one overlap-safe
// copy, then write the varint into the gap — the PMB1 length-prefix trick.
func spliceUvarint(buf []byte, at int, v uint64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v)
	tail := len(buf) - at
	buf = append(buf, scratch[:n]...)
	copy(buf[at+n:], buf[at:at+tail])
	copy(buf[at:at+n], scratch[:n])
	return buf
}

// appendFrontCoded appends name front-coded against prev and returns the
// extended buffer plus prev overwritten with name (reusing its storage).
func appendFrontCoded(dst, prev []byte, name string) ([]byte, []byte) {
	p := 0
	max := len(prev)
	if len(name) < max {
		max = len(name)
	}
	for p < max && prev[p] == name[p] {
		p++
	}
	dst = binary.AppendUvarint(dst, uint64(p))
	dst = binary.AppendUvarint(dst, uint64(len(name)-p))
	dst = append(dst, name[p:]...)
	return dst, append(prev[:0], name...)
}

// Parser decodes one PMT1 report in place: no copies of the payload, one
// name buffer, every field bounds-checked before use. Sections must be
// drained in wire order — NextCounter until exhausted, then NextGauge, then
// NextHist — mirroring how the Collector reads them. The zero value is
// ready for Reset. The name buffer is an array inside the Parser, not a
// slice it grows, so a Parser declared in a function stays on that
// function's stack: the Collector parses each report on its caller's.
type Parser struct {
	d          []byte
	off, end   int
	src, scope []byte
	seq, base  uint64
	nowNS      int64
	remain     int // entries left in the current section
	phase      int8
	nameLen    int // front-decoded current name: name[:nameLen]
	name       [maxNameLen]byte
	err        error
}

const (
	phaseCounters int8 = iota
	phaseGauges
	phaseHists
	phaseDone
)

// Reset points the parser at data and decodes the header. data must
// contain exactly one report (trailing bytes after the declared payload
// are an error). The parser aliases data; it must not be mutated while
// parsing.
func (p *Parser) Reset(data []byte) error {
	*p = Parser{d: data}
	if len(data) < len(telemetryMagic) || string(data[:len(telemetryMagic)]) != telemetryMagic {
		return p.fail(errBadReportHeader)
	}
	off := len(telemetryMagic)
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 || plen != uint64(len(data)-off-n) {
		return p.fail(errBadReportHeader)
	}
	p.off = off + n
	p.end = len(data)

	var ok bool
	var u uint64
	if u, p.off, ok = p.getUvarint(); !ok || u > maxIDLen || u > uint64(p.end-p.off) {
		return p.fail(errBadReport)
	}
	p.src = data[p.off : p.off+int(u)]
	p.off += int(u)
	if u, p.off, ok = p.getUvarint(); !ok || u > maxIDLen || u > uint64(p.end-p.off) {
		return p.fail(errBadReport)
	}
	p.scope = data[p.off : p.off+int(u)]
	p.off += int(u)
	if p.seq, p.off, ok = p.getUvarint(); !ok {
		return p.fail(errBadReport)
	}
	if p.base, p.off, ok = p.getUvarint(); !ok {
		return p.fail(errBadReport)
	}
	if p.nowNS, p.off, ok = metrics.Varint(p.d[:p.end], p.off); !ok {
		return p.fail(errBadReport)
	}
	return p.openSection(phaseCounters)
}

// Src returns the agent identity (aliases the input buffer).
func (p *Parser) Src() []byte { return p.src }

// Scope returns the agent's scope path (aliases the input buffer).
func (p *Parser) Scope() []byte { return p.scope }

// Seq returns the report's sequence number.
func (p *Parser) Seq() uint64 { return p.seq }

// Base returns the acked sequence the deltas are against (0 = fold as-is).
func (p *Parser) Base() uint64 { return p.base }

// NowNS returns the agent's encode timestamp.
func (p *Parser) NowNS() int64 { return p.nowNS }

// Err returns the first error encountered, if any. A report is valid only
// if all three sections were drained and Err returns nil.
func (p *Parser) Err() error { return p.err }

// NextCounter returns the next counter entry. The name aliases the
// parser's name buffer: valid only until the next Next* call.
func (p *Parser) NextCounter() (name []byte, delta uint64, ok bool) {
	if p.err != nil || p.phase != phaseCounters {
		return nil, 0, false
	}
	if p.remain == 0 {
		p.openSection(phaseGauges)
		return nil, 0, false
	}
	p.remain--
	if !p.readName() {
		return nil, 0, false
	}
	if delta, p.off, ok = p.getUvarint(); !ok || delta > maxWireCount {
		p.fail(errBadReport)
		return nil, 0, false
	}
	return p.name[:p.nameLen], delta, true
}

// NextGauge returns the next gauge entry. Call only after NextCounter has
// returned false.
func (p *Parser) NextGauge() (name []byte, delta int64, ok bool) {
	if p.err != nil {
		return nil, 0, false
	}
	if p.phase != phaseGauges {
		if p.phase == phaseCounters {
			p.fail(errParserPhase)
		}
		return nil, 0, false
	}
	if p.remain == 0 {
		p.openSection(phaseHists)
		return nil, 0, false
	}
	p.remain--
	if !p.readName() {
		return nil, 0, false
	}
	if delta, p.off, ok = metrics.Varint(p.d[:p.end], p.off); !ok {
		p.fail(errBadReport)
		return nil, 0, false
	}
	return p.name[:p.nameLen], delta, true
}

// NextHist returns the next histogram entry: its sum is the sum of the new
// observations, its min/max the agent's cumulative ones. Its runs are
// appended to scratch, which comes back extended as ext; hd's runs are its
// tail. Call only after NextGauge has returned false. After the last
// histogram, the parser verifies the payload was fully consumed; check Err.
func (p *Parser) NextHist(scratch []uint64) (name []byte, hd metrics.Runs, ext []uint64, ok bool) {
	if p.err != nil {
		return nil, metrics.Runs{}, scratch, false
	}
	if p.phase != phaseHists {
		if p.phase != phaseDone {
			p.fail(errParserPhase)
		}
		return nil, metrics.Runs{}, scratch, false
	}
	if p.remain == 0 {
		if p.off != p.end {
			p.fail(errBadReport)
		}
		p.phase = phaseDone
		return nil, metrics.Runs{}, scratch, false
	}
	p.remain--
	if !p.readName() {
		return nil, metrics.Runs{}, scratch, false
	}
	hd, ext, n, ok := metrics.DecodeRuns(p.d[p.off:p.end], scratch)
	if !ok {
		p.fail(errBadReport)
		return nil, metrics.Runs{}, scratch, false
	}
	p.off += n
	return p.name[:p.nameLen], hd, ext, true
}

// openSection reads the next section's entry count and sanity-checks it
// against the remaining payload: every entry takes at least three bytes, a
// name's two lengths and one byte of value.
func (p *Parser) openSection(phase int8) error {
	n, off, ok := p.getUvarint()
	if !ok || n > uint64(p.end-off)/3 {
		return p.fail(errBadReport)
	}
	p.off = off
	p.remain = int(n)
	p.phase = phase
	p.nameLen = 0
	return nil
}

// readName front-decodes the next name into p.name.
func (p *Parser) readName() bool {
	prefix, off, ok := p.getUvarint()
	if !ok || prefix > uint64(p.nameLen) {
		p.fail(errBadReport)
		return false
	}
	sfx, off2, ok := metrics.Uvarint(p.d[:p.end], off)
	if !ok || prefix+sfx > maxNameLen || sfx > uint64(p.end-off2) {
		p.fail(errBadReport)
		return false
	}
	p.nameLen = int(prefix) + copy(p.name[prefix:], p.d[off2:off2+int(sfx)])
	p.off = off2 + int(sfx)
	return true
}

func (p *Parser) getUvarint() (uint64, int, bool) {
	return metrics.Uvarint(p.d[:p.end], p.off)
}

func (p *Parser) fail(err error) error {
	if p.err == nil {
		p.err = err
	}
	p.phase = phaseDone
	return err
}
