// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–§6) and returns structured results plus a printable report
// comparing the paper's numbers with the measured ones.
//
// Figure 4(a–c), Table 1 and Figures 5–8 are read off the pipeline, as the
// paper reads them off Pingmesh: each builds a pingmesh.SimTestbed, probes
// with RunWindow until its budget is reached, and reads what an operator
// reads — an ad-hoc scope job over the store, the DSA's rows and heatmaps,
// its daily black-hole detections; the §5 localisation run (Diagnosis) reads
// its vote ranking and evidence chains. Figure 3, Figure 4(d), QoS, ICW,
// fan-out and the ablations vary the agent or the pinglist, which the
// testbed fixes, and sample the fabric directly (measureDist). Absolute values depend on
// the simulator's calibration; the shapes — orderings, ratios, crossovers,
// detection dynamics — are checked by the experiment tests.
package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"pingmesh"
	"pingmesh/internal/analysis"
	"pingmesh/internal/metrics"
	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// Row is one line of a paper-vs-measured comparison.
type Row struct {
	Label    string
	Paper    string
	Measured string
}

// Report is a printable experiment result.
type Report struct {
	ID    string // e.g. "Figure 4(b)"
	Title string
	Rows  []Row
	Notes []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	w := 12
	for _, row := range r.Rows {
		if len(row.Label) > w {
			w = len(row.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-22s  %s\n", w, "metric", "paper", "measured")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-*s  %-22s  %s\n", w, row.Label, row.Paper, row.Measured)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options scales an experiment run.
type Options struct {
	// Probes is the per-distribution probe budget. Experiments choose
	// sensible defaults when zero; tails and drop rates sharpen with more.
	Probes int
	// Seed makes runs reproducible.
	Seed uint64
}

func (o Options) probes(def int) int {
	if o.Probes > 0 {
		return o.Probes
	}
	return def
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 0x9127
}

// probesPer counts the probes the testbed's fleet sends in span from the
// servers of one DC to peers of one class. Every pinglist interval divides a
// minute, so over a whole number of minutes each peer is probed exactly
// span/interval times.
func probesPer(tb *pingmesh.SimTestbed, span time.Duration, dc int, class probe.Class) int {
	n := 0
	for id, list := range tb.Pinglists() {
		if tb.Top.Server(id).DC != dc {
			continue
		}
		for i := range list.Peers {
			if c, err := probe.ParseClass(list.Peers[i].Class); err == nil && c == class {
				n += int(span / list.Peers[i].Interval())
			}
		}
	}
	return n
}

// spansFor returns how many whole spans it takes until every one of the
// per-span counts has reached budget probes.
func spansFor(budget int, perSpan ...int) int {
	w := 1
	for _, n := range perSpan {
		w = max(w, (budget+n-1)/n)
	}
	return w
}

// probeCycle probes for span from now, moves the clock on to the end of
// period, and runs one DSA cycle over the period, which the figure then reads:
// what the folded partials publish, as a deployment does. A period off the
// window grid fails the cycle.
func probeCycle(tb *pingmesh.SimTestbed, span, period time.Duration, run func(from, to time.Time) error) error {
	from := tb.Clock.Now()
	if err := tb.RunWindow(span); err != nil {
		return err
	}
	tb.Clock.AdvanceTo(from.Add(period))
	return run(from, tb.Clock.Now())
}

// pairKind selects which locality class of server pairs to sample.
type pairKind int

const (
	pairInterPod    pairKind = iota // different pod, same DC (the paper's headline metric)
	pairCrossPodset                 // different podset: the path must cross the Spine tier
)

// samplePairs returns up to want (src,dst) pairs of the given kind within
// one DC, spread deterministically across the fabric.
func samplePairs(top *topology.Topology, dc int, kind pairKind, want int, seed uint64) [][2]topology.ServerID {
	rng := rand.New(rand.NewPCG(seed, uint64(dc)+1))
	servers := top.DCs[dc].Servers()
	var out [][2]topology.ServerID
	for len(out) < want {
		src := servers[rng.IntN(len(servers))]
		dst := servers[rng.IntN(len(servers))]
		if src == dst {
			continue
		}
		switch kind {
		case pairInterPod:
			if top.SamePod(src, dst) {
				continue
			}
		case pairCrossPodset:
			if top.SamePodset(src, dst) {
				continue
			}
		}
		out = append(out, [2]topology.ServerID{src, dst})
	}
	return out
}

// measureDist probes the pairs round-robin for exactly n probes and
// aggregates stats, spreading the pairs over workers goroutines. Each pair
// draws from its own rng, seeded by its index, so the stats do not depend
// on workers. Each probe uses a fresh source port so ECMP paths vary; start
// stamps drive load profiles.
func measureDist(net *netsim.Network, pairs [][2]topology.ServerID, n, payload int, start time.Time, seed uint64, workers int) *analysis.LatencyStats {
	workers = min(workers, len(pairs))
	results := make([]*analysis.LatencyStats, workers)
	var wg sync.WaitGroup
	top := net.Topology()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := analysis.NewLatencyStats()
			for pi := w; pi < len(pairs); pi += workers {
				p := pairs[pi]
				rng := rand.New(rand.NewPCG(seed, uint64(pi)))
				// A PairProber, like the rng, must not be shared across
				// goroutines.
				pr := net.PairProber(p[0], p[1])
				spec := netsim.ProbeSpec{Src: p[0], Dst: p[1], DstPort: 8765, PayloadLen: payload, Start: start}
				rec := probe.Record{Src: top.Server(p[0]).Addr, Dst: top.Server(p[1]).Addr}
				// Round-robin: pair pi takes probes pi, pi+len(pairs), ...
				for i := pi; i < n; i += len(pairs) {
					spec.SrcPort = uint16(32768 + rng.IntN(28000))
					res := pr.Probe(&spec, rng)
					rec.RTT, rec.PayloadRTT, rec.Err = res.RTT, res.PayloadRTT, res.Err
					st.Add(&rec)
				}
			}
			results[w] = st
		}(w)
	}
	wg.Wait()
	total := analysis.NewLatencyStats()
	for _, st := range results {
		total.Merge(st)
	}
	return total
}

// fmtDur renders a duration with µs/ms precision like the paper quotes.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dus", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtSummary(s metrics.Summary) string {
	return fmt.Sprintf("P50=%s P99=%s P99.9=%s P99.99=%s",
		fmtDur(s.P50), fmtDur(s.P99), fmtDur(s.P999), fmtDur(s.P9999))
}
