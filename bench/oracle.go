package main

// oracle.go computes what the system's outputs must be from the generated
// inputs alone. The SLA oracle reads only the arena's records: no repo
// codec, store or histogram takes part, so a fast path that mishandles a
// record shows here as a failed operation, whatever it does to the timings.

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/topology"
)

// slaRow is one entry of the portal's /sla document.
type slaRow struct {
	Scope       string    `json:"scope"`
	WindowStart time.Time `json:"window_start"`
	Probes      int64     `json:"probes"`
	P50         int64     `json:"p50_ns"`
	P99         int64     `json:"p99_ns"`
	DropRate    float64   `json:"drop_rate"`
	FailureRate float64   `json:"failure_rate"`
}

// tally is the exact aggregate of one scope over one window.
type tally struct {
	probes, failed, sig3, sig9 uint64
	rtts                       []int64 // successful connect RTTs
}

func (t *tally) add(r *probe.Record) {
	t.probes++
	if r.Err != "" {
		t.failed++
		return
	}
	t.rtts = append(t.rtts, int64(r.RTT))
	// The SYN-retransmit bands of §4.2: ~3 s is one drop, ~9 s two.
	switch {
	case r.RTT >= 2500*time.Millisecond && r.RTT < 6*time.Second:
		t.sig3++
	case r.RTT >= 6*time.Second && r.RTT < 15*time.Second:
		t.sig9++
	}
}

// exactQuantile is the sorted-sample quantile the histogram estimates: the
// smallest sample with at least q of the samples at or below it.
func (t *tally) exactQuantile(q float64) int64 {
	if len(t.rtts) == 0 {
		return 0
	}
	rank := q * float64(len(t.rtts))
	i := int(rank)
	if float64(i) < rank {
		i++
	}
	return t.rtts[max(i, 1)-1]
}

// withinOneBucket allows the published percentile the histogram's 5 % bucket
// width plus one neighbouring bucket.
func withinOneBucket(got, exact int64) bool {
	if exact == 0 || got == 0 {
		return got == exact
	}
	ratio := float64(got) / float64(exact)
	const slack = 1.05 * 1.05
	return ratio <= slack && ratio >= 1/slack
}

type slaOracle struct {
	dcOf    map[netip.Addr]string
	service map[netip.Addr]bool
	scope   string // the tracked service's SLA scope
}

func newSLAOracle(top *topology.Topology, serviceName string, members []topology.ServerID) *slaOracle {
	o := &slaOracle{dcOf: map[netip.Addr]string{}, service: map[netip.Addr]bool{}, scope: "service/" + serviceName}
	for _, s := range top.Servers() {
		o.dcOf[s.Addr] = top.DCs[s.DC].Name
	}
	for _, id := range members {
		o.service[top.Server(id).Addr] = true
	}
	return o
}

// expect tallies one window of arena records into the ten-minute scopes.
func (o *slaOracle) expect(arena [][]probe.Record) map[string]*tally {
	out := map[string]*tally{o.scope: {}}
	get := func(scope string) *tally {
		t := out[scope]
		if t == nil {
			t = &tally{}
			out[scope] = t
		}
		return t
	}
	for _, recs := range arena {
		for i := range recs {
			r := &recs[i]
			switch {
			case r.Class == probe.InterDC:
				get("interdc/" + o.dcOf[r.Src] + "->" + o.dcOf[r.Dst]).add(r)
			case r.PayloadLen == 0:
				get("dc/" + o.dcOf[r.Src]).add(r)
				if o.service[r.Src] {
					out[o.scope].add(r)
				}
			}
		}
	}
	for _, t := range out {
		slices.Sort(t.rtts)
	}
	return out
}

// verify compares the published rows of the window starting at from with
// the expectation and returns one message per mismatched scope.
func verifySLA(want map[string]*tally, rows []slaRow, from time.Time) []string {
	got := map[string]slaRow{}
	for _, r := range rows {
		if r.WindowStart.Equal(from) {
			got[r.Scope] = r
		}
	}
	var bad []string
	for scope, t := range want {
		r, ok := got[scope]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s @%s: no published row", scope, from.Format("15:04")))
			continue
		}
		success := uint64(len(t.rtts))
		var drop, fail float64
		if success > 0 {
			drop = float64(t.sig3+t.sig9) / float64(success)
		}
		if t.probes > 0 {
			fail = float64(t.failed) / float64(t.probes)
		}
		p50, p99 := t.exactQuantile(0.50), t.exactQuantile(0.99)
		switch {
		case uint64(r.Probes) != t.probes:
			bad = append(bad, fmt.Sprintf("%s @%s: probes %d, want %d", scope, from.Format("15:04"), r.Probes, t.probes))
		case r.DropRate != drop || r.FailureRate != fail:
			bad = append(bad, fmt.Sprintf("%s @%s: drop %v fail %v, want %v %v", scope, from.Format("15:04"),
				r.DropRate, r.FailureRate, drop, fail))
		case !withinOneBucket(r.P50, p50) || !withinOneBucket(r.P99, p99):
			bad = append(bad, fmt.Sprintf("%s @%s: p50 %d p99 %d, exact %d %d", scope, from.Format("15:04"),
				r.P50, r.P99, p50, p99))
		}
	}
	return bad
}

// Telemetry shadow: the exact fleet totals of what the simulated agents
// reported, kept as plain integers and bucket counts.

var (
	telemCounters = [6]string{"agent.probes_sent", "agent.probes_failed", "agent.uploads_ok",
		"agent.upload_bytes", "agent.fetch_ok", "agent.fetch_delta"}
	telemGauges = [2]string{"agent.peers", "agent.buffered_records"}
	telemHists  = [3]string{"agent.rtt.intra-pod", "agent.rtt.intra-dc", "agent.rtt.inter-dc"}
)

type histShadow struct {
	buckets  []uint64
	count    uint64
	sum      int64
	min, max int64
}

func (h *histShadow) observe(v int64) {
	h.buckets[metrics.LatencyBucketOf(time.Duration(v))]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

type telemShadow struct {
	counters [6]int64
	gauges   [2]int64
	hists    [3]histShadow
}

func newTelemShadow() *telemShadow {
	s := &telemShadow{}
	for i := range s.hists {
		s.hists[i].buckets = make([]uint64, metrics.LatencyBucketCount())
	}
	return s
}

func (s *telemShadow) merge(o *telemShadow) {
	for i := range s.counters {
		s.counters[i] += o.counters[i]
	}
	for i := range s.gauges {
		s.gauges[i] += o.gauges[i]
	}
	for i := range s.hists {
		h, oh := &s.hists[i], &o.hists[i]
		if oh.count == 0 {
			continue
		}
		if h.count == 0 || oh.min < h.min {
			h.min = oh.min
		}
		h.max = max(h.max, oh.max)
		h.count += oh.count
		h.sum += oh.sum
		for b, n := range oh.buckets {
			h.buckets[b] += n
		}
	}
}

// verify compares the collector's fleet rollups with the shadow and returns
// one message per mismatch.
func (s *telemShadow) verify(col *telemetry.Collector) []string {
	var bad []string
	for i, name := range telemCounters {
		if got, _ := col.RollupCounter("fleet", name); got != s.counters[i] {
			bad = append(bad, fmt.Sprintf("fleet counter %s = %d, want %d", name, got, s.counters[i]))
		}
	}
	for i, name := range telemGauges {
		if got, _ := col.RollupGauge("fleet", name); got != s.gauges[i] {
			bad = append(bad, fmt.Sprintf("fleet gauge %s = %d, want %d", name, got, s.gauges[i]))
		}
	}
	for i, name := range telemHists {
		want := &s.hists[i]
		got, ok := col.RollupHistogram("fleet", name)
		if !ok {
			bad = append(bad, "no fleet histogram "+name)
			continue
		}
		if got.Count() != want.count || int64(got.Sum()) != want.sum ||
			int64(got.Min()) != want.min || int64(got.Max()) != want.max {
			bad = append(bad, fmt.Sprintf("fleet histogram %s tallies: count %d sum %d, want %d %d",
				name, got.Count(), got.Sum(), want.count, want.sum))
			continue
		}
		seen := make([]uint64, len(want.buckets))
		for it := got.Buckets(); ; {
			b, ok := it.Next()
			if !ok {
				break
			}
			seen[b.Index] = b.Count
		}
		if !slices.Equal(seen, want.buckets) {
			bad = append(bad, "fleet histogram "+name+" buckets differ")
		}
	}
	return bad
}
