// Package uploadsim measures the sketch-upload pipeline against the raw
// CSV pipeline on a synthetic fleet: the same probes, shipped both ways,
// must cost a fraction of the upload bytes and aggregate to the same SLA.
//
// The harness builds a topology, gives every server a fixed pinglist
// (a handful of peers probed on the agent cadence for one 10-minute
// window), and runs each server's results through both upload paths:
//
//   - raw: every record CSV-encoded in per-flush batches, the pre-sketch
//     agent verbatim;
//   - sketch: the agent's anomaly policy — failures, SYN-retransmit drop
//     signatures and over-threshold RTTs ship raw, everything else folds
//     into per-peer sketches via agent.SketchAccumulator and ships once
//     per window in the PMB1 binary format.
//
// Both byte streams land in separate cosmos stores. The harness then
// scans both stores back into per-class aggregates and runs the DSA
// pipeline over each, checking three things the PR's acceptance pins:
//
//   - upload-byte reduction (plain vs plain; gzip is reported alongside),
//   - P50/P99 within one histogram bucket of the exact pipeline (they are
//     in fact bucket-identical: agents and analysis share one layout),
//   - SLA row parity through the DSA fold path.
package uploadsim

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
	"time"

	"pingmesh/internal/agent"
	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/dsa"
	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
	"pingmesh/internal/topology"
)

// Config sizes the simulated fleet and cadence.
type Config struct {
	// Servers is the target fleet size, rounded up to whole 1000-server
	// podsets. Default 2000.
	Servers int
	// Peers is each server's pinglist size. Default 8 (one inter-DC).
	Peers int
	// ProbesPerPeer is how many times each peer is probed in the window.
	// Default 60 (the 10s MinProbeInterval cadence over 10 minutes).
	ProbesPerPeer int
	// FlushesPerWindow is the upload cadence: how many batches a server's
	// window is shipped in. Default 10 (a 1-minute UploadInterval).
	FlushesPerWindow int
	// RawThreshold mirrors agent.Config.RawThreshold. Default 1s.
	RawThreshold time.Duration
	// ExtentSize is the cosmos extent size. Default 1 MiB.
	ExtentSize int
	// Seed for the record synthesizer. Default 1.
	Seed int64
}

func (c *Config) fill() {
	if c.Servers <= 0 {
		c.Servers = 2000
	}
	if c.Peers <= 0 {
		c.Peers = 8
	}
	if c.ProbesPerPeer <= 0 {
		c.ProbesPerPeer = 60
	}
	if c.FlushesPerWindow <= 0 {
		c.FlushesPerWindow = 10
	}
	if c.RawThreshold <= 0 {
		c.RawThreshold = time.Second
	}
	if c.ExtentSize <= 0 {
		c.ExtentSize = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ClassRow compares one probe class's percentiles across the pipelines.
type ClassRow struct {
	Class           string `json:"class"`
	Count           uint64 `json:"count"`
	ExactP50NS      int64  `json:"exact_p50_ns"`
	SketchP50NS     int64  `json:"sketch_p50_ns"`
	ExactP99NS      int64  `json:"exact_p99_ns"`
	SketchP99NS     int64  `json:"sketch_p99_ns"`
	P50DeltaBuckets int    `json:"p50_delta_buckets"`
	P99DeltaBuckets int    `json:"p99_delta_buckets"`
}

// Report is the harness output, written to BENCH_PR8.json by the CLI.
type Report struct {
	GeneratedAt      string  `json:"generated_at,omitempty"`
	Servers          int     `json:"servers"`
	DCs              int     `json:"dcs"`
	Peers            int     `json:"peers_per_server"`
	ProbesPerPeer    int     `json:"probes_per_peer"`
	Records          int     `json:"records"`
	RawShipped       int     `json:"sketch_mode_raw_records"`
	Sketches         int     `json:"sketch_mode_sketches"`
	CSVBytes         int64   `json:"csv_upload_bytes"`
	BinaryBytes      int64   `json:"binary_upload_bytes"`
	CSVGzBytes       int64   `json:"csv_gzip_upload_bytes"`
	BinaryGzBytes    int64   `json:"binary_gzip_upload_bytes"`
	ByteReduction    float64 `json:"byte_reduction"`      // CSV / binary, plain
	GzByteReduction  float64 `json:"gzip_byte_reduction"` // CSV.gz / binary.gz
	BytesPerProbeCSV float64 `json:"bytes_per_probe_csv"`
	BytesPerProbeBin float64 `json:"bytes_per_probe_binary"`
	// BucketRelError is the sketch's documented relative-error bound: the
	// histogram growth factor minus one (≈5%). Percentile deltas below are
	// measured in buckets of that width.
	BucketRelError  float64    `json:"bucket_rel_error"`
	Classes         []ClassRow `json:"classes"`
	WithinOneBucket bool       `json:"p50_p99_within_one_bucket"`
	DropRateExact   float64    `json:"drop_rate_exact"`
	DropRateSketch  float64    `json:"drop_rate_sketch"`
	SLARowsExact    int        `json:"sla_rows_exact"`
	SLARowsSketch   int        `json:"sla_rows_sketch"`
	SLAParity       bool       `json:"sla_row_parity"`
	GenerateMS      float64    `json:"generate_ms"`
	ScanExactMS     float64    `json:"scan_exact_ms"`
	ScanSketchMS    float64    `json:"scan_sketch_ms"`
}

var simStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

const (
	simStream = "pingmesh/2026-07-01"
	simWindow = 10 * time.Minute
)

// buildTopology sizes the fleet in whole 1000-server podsets
// spread over at least two DCs (the inter-DC SLA needs both sides).
func buildTopology(servers int) (*topology.Topology, error) {
	const perPodset = 1000
	podsets := (servers + perPodset - 1) / perPodset
	if podsets < 2 {
		podsets = 2
	}
	dcs := (podsets + 49) / 50
	if dcs < 2 {
		dcs = 2
	}
	perDC := (podsets + dcs - 1) / dcs
	spec := topology.Spec{}
	for d := 0; d < dcs; d++ {
		n := perDC
		if left := podsets - d*perDC; n > left {
			n = left
		}
		if n <= 0 {
			break
		}
		spec.DCs = append(spec.DCs, topology.DCSpec{
			Name: fmt.Sprintf("DC%02d", d+1), Podsets: n,
			PodsPerPodset: 20, ServersPerPod: 50,
			LeavesPerPodset: 2, Spines: 4,
		})
	}
	return topology.Build(spec)
}

// dcSpans returns each DC's contiguous [base, base+span) range in the flat
// server slice.
func dcSpans(top *topology.Topology) (base, span []int) {
	base = make([]int, len(top.DCs))
	span = make([]int, len(top.DCs))
	off := 0
	for d := range top.DCs {
		n := 0
		for _, ps := range top.DCs[d].Podsets {
			for _, pod := range ps.Pods {
				n += len(pod.Servers)
			}
		}
		base[d], span[d] = off, n
		off += n
	}
	return base, span
}

// gzipCounter measures the gzip size of upload payloads through one pooled
// writer, the way a gzip-enabled agent would compress them.
type gzipCounter struct {
	buf bytes.Buffer
	zw  *gzip.Writer
}

func (g *gzipCounter) size(data []byte) int64 {
	if g.zw == nil {
		g.zw = gzip.NewWriter(&g.buf)
	}
	g.buf.Reset()
	g.zw.Reset(&g.buf)
	g.zw.Write(data)
	g.zw.Close()
	return int64(g.buf.Len())
}

// Run executes the differential measurement. logf (optional) receives
// progress lines.
func Run(cfg Config, logf func(format string, args ...any)) (*Report, error) {
	cfg.fill()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	top, err := buildTopology(cfg.Servers)
	if err != nil {
		return nil, err
	}
	logf("topology: %d servers across %d DCs", top.NumServers(), len(top.DCs))

	rawStore, err := cosmos.NewStore(1, cosmos.Config{ExtentSize: cfg.ExtentSize, Replicas: 1})
	if err != nil {
		return nil, err
	}
	skStore, err := cosmos.NewStore(1, cosmos.Config{ExtentSize: cfg.ExtentSize, Replicas: 1})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Servers: top.NumServers(), DCs: len(top.DCs),
		Peers: cfg.Peers, ProbesPerPeer: cfg.ProbesPerPeer,
		BucketRelError: metrics.LatencyBucketGrowth - 1,
	}

	genStart := time.Now()
	if err := synthesize(cfg, top, rawStore, skStore, rep); err != nil {
		return nil, err
	}
	rep.GenerateMS = msSince(genStart)
	if rep.BinaryBytes > 0 {
		rep.ByteReduction = float64(rep.CSVBytes) / float64(rep.BinaryBytes)
	}
	if rep.BinaryGzBytes > 0 {
		rep.GzByteReduction = float64(rep.CSVGzBytes) / float64(rep.BinaryGzBytes)
	}
	if rep.Records > 0 {
		rep.BytesPerProbeCSV = float64(rep.CSVBytes) / float64(rep.Records)
		rep.BytesPerProbeBin = float64(rep.BinaryBytes) / float64(rep.Records)
	}
	logf("synthesized %d records in %.0fms: csv %d KiB, binary %d KiB (%.1fx), gzip %d/%d KiB (%.1fx)",
		rep.Records, rep.GenerateMS, rep.CSVBytes>>10, rep.BinaryBytes>>10, rep.ByteReduction,
		rep.CSVGzBytes>>10, rep.BinaryGzBytes>>10, rep.GzByteReduction)

	// Scan both stores back into per-class aggregates and compare the
	// percentiles bucket-for-bucket.
	scanStart := time.Now()
	exact, err := scanStore(rawStore)
	if err != nil {
		return nil, err
	}
	rep.ScanExactMS = msSince(scanStart)
	scanStart = time.Now()
	sketched, err := scanStore(skStore)
	if err != nil {
		return nil, err
	}
	rep.ScanSketchMS = msSince(scanStart)

	rep.WithinOneBucket = true
	for cls := probe.IntraPod; cls <= probe.InterDC; cls++ {
		e, s := exact[cls], sketched[cls]
		if e.Total() == 0 && s.Total() == 0 {
			continue
		}
		if e.Total() != s.Total() {
			return nil, fmt.Errorf("uploadsim: class %v: %d probes raw vs %d sketched", cls, e.Total(), s.Total())
		}
		es, ss := e.Summary(), s.Summary()
		row := ClassRow{
			Class: cls.String(), Count: es.Count,
			ExactP50NS: int64(es.P50), SketchP50NS: int64(ss.P50),
			ExactP99NS: int64(es.P99), SketchP99NS: int64(ss.P99),
			P50DeltaBuckets: bucketDelta(es.P50, ss.P50),
			P99DeltaBuckets: bucketDelta(es.P99, ss.P99),
		}
		if row.P50DeltaBuckets > 1 || row.P99DeltaBuckets > 1 {
			rep.WithinOneBucket = false
		}
		rep.Classes = append(rep.Classes, row)
		logf("%s: p50 %v/%v (Δ%d buckets), p99 %v/%v (Δ%d buckets), n=%d",
			row.Class, es.P50, ss.P50, row.P50DeltaBuckets, es.P99, ss.P99, row.P99DeltaBuckets, es.Count)
	}
	rep.DropRateExact = fleetDropRate(exact)
	rep.DropRateSketch = fleetDropRate(sketched)
	if rep.DropRateExact != rep.DropRateSketch {
		return nil, fmt.Errorf("uploadsim: drop rate diverged: %v raw vs %v sketched",
			rep.DropRateExact, rep.DropRateSketch)
	}

	// SLA parity through the DSA tier (seal journal -> FoldExtent -> merged
	// partial + tail scan -> publish): one pipeline per store.
	windowEnd := simStart.Add(simWindow)
	services := []*analysis.Service{
		analysis.ServiceFromServers("search", top, top.DCs[0].Podsets[0].Servers()),
	}
	slaRows := func(store *cosmos.Store) (rows int, folded uint64, err error) {
		pipe, err := dsa.New(dsa.Config{
			Store: store, Top: top, Clock: simclock.NewSim(windowEnd), Services: services,
		})
		if err != nil {
			return 0, 0, err
		}
		if err := pipe.RunTenMinute(simStart, windowEnd); err != nil {
			return 0, 0, err
		}
		return pipe.DB().Count(dsa.TableSLA), pipe.ShardLags()[0].Folded, nil
	}
	if rep.SLARowsExact, _, err = slaRows(rawStore); err != nil {
		return nil, err
	}
	if rep.SLARowsExact == 0 {
		return nil, fmt.Errorf("uploadsim: raw pipeline published no SLA rows")
	}
	var folded uint64
	if rep.SLARowsSketch, folded, err = slaRows(skStore); err != nil {
		return nil, err
	}
	if folded == 0 {
		return nil, fmt.Errorf("uploadsim: sketch pipeline folded nothing — parity check ran on a tail scan alone")
	}
	rep.SLAParity = rep.SLARowsSketch == rep.SLARowsExact
	logf("SLA rows: %d raw, %d sketch (parity %v, %d sketch extents folded)",
		rep.SLARowsExact, rep.SLARowsSketch, rep.SLAParity, folded)
	return rep, nil
}

// synthesize generates every server's window of probes and ships them
// through both upload paths, tallying wire bytes into rep.
func synthesize(cfg Config, top *topology.Topology, rawStore, skStore *cosmos.Store, rep *Report) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	servers := top.Servers()
	base, span := dcSpans(top)
	step := simWindow / time.Duration(cfg.ProbesPerPeer)
	perFlush := cfg.ProbesPerPeer / cfg.FlushesPerWindow
	if perFlush == 0 {
		perFlush = 1
	}

	var gz gzipCounter
	var encBuf []byte
	flushRecs := make([]probe.Record, 0, cfg.Peers*(perFlush+1))
	anomalies := make([]probe.Record, 0, 16)
	peers := make([]agent.Target, cfg.Peers)

	csvShip := func(recs []probe.Record) error {
		if len(recs) == 0 {
			return nil
		}
		encBuf = probe.AppendBatch(encBuf[:0], recs)
		rep.CSVBytes += int64(len(encBuf))
		rep.CSVGzBytes += gz.size(encBuf)
		return rawStore.Append(simStream, encBuf)
	}
	binShip := func(recs []probe.Record, sks []probe.PeerSketch) error {
		if len(recs) == 0 && len(sks) == 0 {
			return nil
		}
		encBuf = probe.AppendBinaryBatch(encBuf[:0], recs, sks)
		rep.BinaryBytes += int64(len(encBuf))
		rep.BinaryGzBytes += gz.size(encBuf)
		rep.RawShipped += len(recs)
		rep.Sketches += len(sks)
		return skStore.Append(simStream, encBuf)
	}

	for i := range servers {
		src := &servers[i]
		// Fixed pinglist: peers-1 same-DC neighbours plus one inter-DC peer,
		// the shape a real pinglist gives a server.
		for p := 0; p < cfg.Peers; p++ {
			var dst *topology.Server
			cls := probe.IntraDC
			if p == cfg.Peers-1 && len(top.DCs) > 1 {
				otherDC := (src.DC + 1 + rng.Intn(len(top.DCs)-1)) % len(top.DCs)
				dst = &servers[base[otherDC]+rng.Intn(span[otherDC])]
				cls = probe.InterDC
			} else {
				dst = &servers[base[src.DC]+(i-base[src.DC]+p+1)%span[src.DC]]
			}
			peers[p] = agent.Target{Addr: dst.Addr, Port: 4200, Class: cls, Proto: probe.TCP}
		}

		acc := agent.NewSketchAccumulator(src.Addr, simWindow)
		anomalies = anomalies[:0]
		for f := 0; f*perFlush < cfg.ProbesPerPeer; f++ {
			flushRecs = flushRecs[:0]
			lo, hi := f*perFlush, (f+1)*perFlush
			if hi > cfg.ProbesPerPeer {
				hi = cfg.ProbesPerPeer
			}
			for j := lo; j < hi; j++ {
				for p := range peers {
					t := &peers[p]
					rtt := 200*time.Microsecond + time.Duration(rng.Intn(300))*time.Microsecond
					if rng.Intn(64) == 0 {
						rtt += time.Duration(1+rng.Intn(30)) * time.Millisecond // congestion tail
					}
					if t.Class == probe.InterDC {
						rtt += 30 * time.Millisecond
					}
					errStr := ""
					if rng.Intn(512) == 0 {
						rtt = 3 * time.Second // TCP SYN retransmission signature
						errStr = "probe: timeout"
					}
					r := probe.Record{
						Start: simStart.Add(time.Duration(j)*step + time.Duration(rng.Int63n(int64(step)))),
						Src:   src.Addr, SrcPort: 5000,
						Dst: t.Addr, DstPort: t.Port,
						Class: t.Class, Proto: t.Proto,
						RTT: rtt, Err: errStr,
					}
					rep.Records++
					flushRecs = append(flushRecs, r)
					// The agent's anomaly policy (agent.record): anything with
					// per-record diagnostic value keeps its identity.
					if r.Err != "" || analysis.DropSignature(r.RTT) != 0 || r.RTT >= cfg.RawThreshold {
						anomalies = append(anomalies, r)
					} else {
						acc.Observe(&r)
					}
				}
			}
			// Raw pipeline: this flush ships every record as CSV.
			if err := csvShip(flushRecs); err != nil {
				return err
			}
			// Sketch pipeline: mid-window flushes ship only anomalies (the
			// window is still open); the final flush cuts the sketches.
			if f*perFlush+perFlush < cfg.ProbesPerPeer {
				if err := binShip(anomalies, nil); err != nil {
					return err
				}
				anomalies = anomalies[:0]
			}
		}
		sks := acc.CutBefore(1<<62, nil)
		if err := binShip(anomalies, sks); err != nil {
			return err
		}
	}
	return nil
}

// scanStore streams every extent of the sim stream through the
// format-sniffing scanner into per-class aggregates — the analysis side of
// the differential check.
func scanStore(store *cosmos.Store) ([3]*analysis.LatencyStats, error) {
	var out [3]*analysis.LatencyStats
	for i := range out {
		out[i] = analysis.NewLatencyStats()
	}
	var sc probe.Scanner
	n := store.NumExtents(simStream)
	for i := 0; i < n; i++ {
		data, err := store.ReadExtent(simStream, i)
		if err != nil {
			return out, err
		}
		sc.Reset(data)
		for {
			kind := sc.ScanEntry()
			if kind == probe.EntryEOF {
				break
			}
			if err := sc.RowErr(); err != nil {
				return out, fmt.Errorf("uploadsim: extent %d: %w", i, err)
			}
			switch kind {
			case probe.EntryRecord:
				r := sc.Record()
				out[r.Class].Add(r)
			case probe.EntrySketch:
				sk := sc.Sketch()
				out[sk.Class].AddSketch(sk)
			}
		}
	}
	return out, nil
}

// bucketDelta measures how many histogram buckets apart two latencies are:
// the unit the sketch's error bound is stated in.
func bucketDelta(a, b time.Duration) int {
	d := metrics.LatencyBucketOf(a) - metrics.LatencyBucketOf(b)
	if d < 0 {
		d = -d
	}
	return d
}

func fleetDropRate(st [3]*analysis.LatencyStats) float64 {
	merged := analysis.NewLatencyStats()
	for _, s := range st {
		merged.Merge(s)
	}
	return merged.DropRate()
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
