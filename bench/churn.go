package main

// churn.go runs one epoch of fleet_churn: simulated agents, round-robin over
// the base topology's server names, each fetching its pinglist and shipping
// one PMT1 report per round, across a topology update:
//
//	cold full fetch, two revalidations, UpdateTopology, delta round,
//	revalidation.
//
// A round is three parallel phases over the agents — fetch, build reports,
// ingest reports — then one rollup sample. The fetch phase visits the first
// agent of every server before the rest, so that the update round's
// first-time patch builds are timed apart from cached serves. A few sampled
// agents use the real controller.Client over loopback, which applies and
// verifies the patches.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pingmesh/internal/controller"
	"pingmesh/internal/metrics"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/telemetry"
)

const (
	churnRounds     = 5
	churnUpdateAt   = 3 // UpdateTopology runs before this round
	obsPerHistogram = 32
)

// simAgent is one simulated agent: a server-name index, the validator it
// holds and one RNG word. Its report sequence number is the round.
type simAgent struct {
	server int32
	rng    uint64
	etag   string
	src    string
	client *controller.Client // sampled agents only
}

// report locates one built PMT1 report in its worker's buffer.
type report struct {
	off, end int
	dup      bool
}

// churnWorker is one lane's private state.
type churnWorker struct {
	builder  telemetry.ReportBuilder
	buf      []byte
	reports  []report
	buckets  []uint64
	shadow   *telemShadow
	httpc    *http.Client       // the lane's one loopback connection
	full     *controller.Client // cache-less, for the full-body reference
	lat      []time.Duration
	failures []string
	churnCounts
}

// churnCounts is what a lane's agents moved.
type churnCounts struct {
	fetches, fetchBytes, deltas    int64
	reportBytes, dups, dupsDropped int64
}

func (cp *controlPlane) close() { cp.web.close() }

// lanes runs fn once per worker and, with a recorder, records each lane as a
// span under a phase span. It returns the phase's wall time.
func (cp *controlPlane) lanes(rec *recorder, root int32, layer, name string, round int, fn func(w int) (items int64)) time.Duration {
	t0 := time.Now()
	phase := rec.open(root, benchLayer, name, round, cp.workers, t0)
	var wg sync.WaitGroup
	for w := 0; w < cp.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l0 := time.Now()
			n := fn(w)
			rec.add(phase, layer, name, round, l0, time.Now(), n, 0)
		}()
	}
	wg.Wait()
	t1 := time.Now()
	rec.close(phase, t1, 0, 0)
	return t1.Sub(t0)
}

func runChurnEpoch(shape churnShape, seed uint64, rec *recorder) (*epochResult, error) {
	res := &epochResult{metrics: map[string]float64{}}
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)
	setupStart := time.Now()
	cp, err := buildControlPlane(shape)
	if err != nil {
		return nil, err
	}
	defer cp.close()
	agents := make([]simAgent, shape.agents)
	workers := make([]churnWorker, cp.workers)
	sampled := make([]*controller.Client, 0, shape.sampled)
	for w := range workers {
		hc := keepAliveClient()
		defer hc.CloseIdleConnections()
		workers[w] = churnWorker{
			buf:     make([]byte, 0, 256*(shape.agents/cp.workers+1)),
			buckets: make([]uint64, metrics.LatencyBucketCount()),
			shadow:  newTelemShadow(),
			httpc:   hc,
			full:    &controller.Client{BaseURL: cp.web.url, HTTPClient: hc, DisableCache: true},
		}
	}
	every := max(shape.agents/shape.sampled, 1)
	for i := range agents {
		a := &agents[i]
		a.server = int32(i % len(cp.names))
		a.rng = splitmix(seed, i) | 1
		a.src = fmt.Sprintf("%s/%d", cp.names[a.server], i/len(cp.names))
		if i%every == 0 && len(sampled) < shape.sampled {
			a.client = &controller.Client{BaseURL: cp.web.url, HTTPClient: workers[i%cp.workers].httpc}
			sampled = append(sampled, a.client)
		}
	}
	setup := time.Since(setupStart)

	var (
		loopWall, buildWall, converge, updateWall time.Duration
		cpuLoop                                   time.Duration
		rollups, calib                            []time.Duration
		heapPeak                                  uint64
		firstPass                                 = min(len(cp.names), len(agents))
		updateBytes, updateFetches, updateDeltas  int64
		patchMismatches                           int
	)
	for round := 0; round < churnRounds; round++ {
		t0 := time.Now()
		c0 := cpuTime()
		root := rec.open(0, benchLayer, "round", round, 1, t0)
		if round == churnUpdateAt {
			if err := cp.ctrl.UpdateTopology(cp.updated); err != nil {
				return nil, err
			}
			updateWall = time.Since(t0)
			rec.add(root, "controller", "update", round, t0, time.Now(), int64(len(cp.names)), 0)
		}
		before := churnTotals(workers)
		kind := [churnRounds]string{"full", "304", "304", "delta", "304"}[round]
		// Lane w owns the agents whose index is w modulo the lane count.
		fetch := func(lo, hi int) func(int) int64 {
			return func(w int) (n int64) {
				wk := &workers[w]
				for i := lo + (w-lo%cp.workers+cp.workers)%cp.workers; i < hi; i += cp.workers {
					wk.fetch(cp, &agents[i])
					n++
				}
				return n
			}
		}
		fetchWall := cp.lanes(rec, root, "controller", "fetch_"+kind+"_first", round, fetch(0, firstPass))
		fetchWall += cp.lanes(rec, root, "controller", "fetch_"+kind, round, fetch(firstPass, len(agents)))
		if round == churnUpdateAt {
			converge = updateWall + fetchWall
			after := churnTotals(workers)
			updateBytes = after.fetchBytes - before.fetchBytes
			updateFetches = after.fetches - before.fetches
			updateDeltas = after.deltas - before.deltas
		}

		now := cp.clock.Now()
		c1 := cpuTime()
		bw := cp.lanes(rec, root, "telemetry", "build", round, func(w int) int64 {
			wk := &workers[w]
			wk.buf, wk.reports = wk.buf[:0], wk.reports[:0]
			for i := w; i < len(agents); i += cp.workers {
				wk.build(cp, &agents[i], uint64(round), now.UnixNano())
			}
			return int64(len(wk.reports))
		})
		buildWall += bw
		c2 := cpuTime()
		cp.lanes(rec, root, "telemetry", "ingest", round, func(w int) int64 {
			workers[w].ingest(cp.col, uint64(round)+1, now)
			return int64(len(workers[w].reports))
		})
		r0 := time.Now()
		cp.col.SampleRollups(now)
		r1 := time.Now()
		rec.add(root, "telemetry", "rollup", round, r0, r1, 0, 0)
		rollups = append(rollups, r1.Sub(r0))
		rec.close(root, r1, int64(len(agents)), 0)
		loopWall += r1.Sub(t0)
		cpuLoop += cpuTime() - c0 - (c2 - c1)

		cp.clock.Advance(5 * time.Minute)
		heapPeak = max(heapPeak, liveHeap())
		calib = append(calib, calibrate(cp.workers))
		if round == churnUpdateAt {
			patchMismatches = cp.verifyConverged(res, agents, workers)
		}
	}
	res.loopWall = loopWall
	res.speed = speedOf(calib)

	rounds := int64(churnRounds) * int64(len(agents))
	total := churnTotals(workers)
	res.attempted += 2 * rounds
	var lat []time.Duration
	for w := range workers {
		lat = append(lat, workers[w].lat...)
		for _, f := range workers[w].failures {
			res.fail("%s", f)
		}
	}
	res.check(total.dups == total.dupsDropped, "duplicates dropped %d, injected %d", total.dupsDropped, total.dups)
	shadow := newTelemShadow()
	for w := range workers {
		shadow.merge(workers[w].shadow)
	}
	mismatches := shadow.verify(cp.col)
	res.check(len(mismatches) == 0, "fleet rollups: %v", mismatches)

	m := res.metrics
	m["setup_s"] = setup.Seconds()
	m["items_per_s"] = float64(rounds) / loopWall.Seconds()
	m["pipeline_items_per_s"] = float64(rounds) / (loopWall - buildWall).Seconds()
	m["cpu_s_per_mitem"] = cpuLoop.Seconds() / (float64(rounds) / 1e6)
	m["bytes_per_item"] = float64(total.fetchBytes+total.reportBytes) / float64(rounds)
	var bufBytes uint64
	for w := range workers {
		bufBytes += uint64(cap(workers[w].buf))
	}
	m["heap_mb_peak"] = (float64(heapPeak) - float64(bufBytes)) / 1e6
	if rec == nil {
		return res, nil
	}

	sums := rec.sums()
	perItem := func(k string) float64 {
		if s := sums[k]; s != nil {
			return s.nsPer(s.items)
		}
		return 0
	}
	m["controller.publish_ms"] = cp.newMS
	m["controller.update_ms"] = ms(updateWall)
	m["controller.converge_ms"] = ms(converge)
	m["controller.client_fetch_us_p50"] = us(quantile(lat, 0.5))
	m["controller.fetch_full_ns"] = perItem("controller.fetch_full")
	m["controller.fetch_304_ns"] = perItem("controller.fetch_304")
	m["controller.fetch_delta_ns"] = perItem("controller.fetch_delta")
	if first := sums["controller.fetch_delta_first"]; first != nil {
		cached := time.Duration(m["controller.fetch_delta_ns"] * float64(first.items))
		m["controller.delta_build_ms_total"] = ms(max(first.dur-cached, 0))
	}
	m["controller.delta_share"] = float64(updateDeltas) / float64(updateFetches)
	m["controller.delta_fallbacks"] = float64(cp.ctrl.Metrics().Snapshot().Counters["controller.delta_fallback_full"])
	m["controller.bytes_per_agent_update"] = float64(updateBytes) / float64(updateFetches)
	var applied, fallbacks int64
	for _, c := range sampled {
		st := c.Stats()
		applied += st.DeltaApplied
		fallbacks += st.DeltaFallbacks
	}
	m["pinglist.client_patches_verified"] = float64(applied)
	m["pinglist.apply_mismatches"] = float64(fallbacks) + float64(patchMismatches)
	m["telemetry.build_ns_per_report"] = perItem("telemetry.build")
	m["telemetry.ingest_ns_per_report"] = perItem("telemetry.ingest")
	m["telemetry.bytes_per_report"] = float64(total.reportBytes) / float64(rounds+total.dups)
	m["telemetry.dups_dropped"] = float64(total.dupsDropped)
	m["telemetry.rollup_ms"] = ms(quantile(rollups, 0.5))
	m["telemetry.series_keys"] = float64(len(cp.col.Store().Keys()))
	m["telemetry.rollup_mismatches"] = float64(len(mismatches))
	runtimeMetrics(m, &msStart, float64(rounds)/1e6)
	res.finishTrace(rec)
	return res, nil
}

func churnTotals(workers []churnWorker) (t churnCounts) {
	for w := range workers {
		wk := &workers[w]
		t.fetches += wk.fetches
		t.fetchBytes += wk.fetchBytes
		t.deltas += wk.deltas
		t.reportBytes += wk.reportBytes
		t.dups += wk.dups
		t.dupsDropped += wk.dupsDropped
	}
	return t
}

// fetch is one agent's pinglist poll: in process for a simulated agent,
// over loopback through the real client for a sampled one.
func (wk *churnWorker) fetch(cp *controlPlane, a *simAgent) {
	name := cp.names[a.server]
	wk.fetches++
	if a.client != nil {
		t0 := time.Now()
		got, err := a.client.FetchDetail(context.Background(), name)
		wk.lat = append(wk.lat, time.Since(t0))
		if err != nil {
			wk.failures = append(wk.failures, fmt.Sprintf("client fetch %s: %v", name, err))
			return
		}
		wk.fetchBytes += got.BytesOnWire
		if got.Delta {
			wk.deltas++
		}
		// The client exposes no validator; the generation it holds stands
		// in, and verifyConverged compares its bytes with a full download.
		a.etag = got.File.Version
		return
	}
	out := cp.ctrl.ServeFetch(name, a.etag, a.etag != "")
	if out.Kind == controller.FetchNotFound {
		wk.failures = append(wk.failures, "no pinglist for "+name)
		return
	}
	if out.Kind == controller.FetchDelta {
		wk.deltas++
	}
	wk.fetchBytes += out.BytesOnWire
	a.etag = out.ETag
}

// build assembles one agent's report for the round into the worker's
// buffer and adds what it carries to the worker's shadow tally.
func (wk *churnWorker) build(cp *controlPlane, a *simAgent, round uint64, nowNS int64) {
	b := &wk.builder
	b.Begin(a.src, cp.scopes[a.server], round+1, round, nowNS)
	rng := &a.rng
	counters := [6]uint64{
		200 + xorshift(rng)%100, // probes sent
		xorshift(rng) % 3,       // probes failed
		1 + xorshift(rng)%3,     // uploads
		2000 + xorshift(rng)%512,
		1,
		xorshift(rng) % 2,
	}
	for i, v := range counters {
		if v != 0 {
			b.Counter(telemCounters[i], v)
			wk.shadow.counters[i] += int64(v)
		}
	}
	gauges := [2]int64{int64(xorshift(rng)%21) - 10, int64(xorshift(rng)%201) - 100}
	if round == 0 {
		gauges[0] += 2000
	}
	for i, v := range gauges {
		if v != 0 {
			b.Gauge(telemGauges[i], v)
			wk.shadow.gauges[i] += v
		}
	}
	for h, base := range [3]int64{150_000, 250_000, 30_000_000} {
		var sum, vmin, vmax int64
		lo, hi := len(wk.buckets), 0
		sh := &wk.shadow.hists[h]
		for o := 0; o < obsPerHistogram; o++ {
			v := base + int64(xorshift(rng)%uint64(base))
			if xorshift(rng)%100 == 0 {
				v += int64(xorshift(rng) % 5_000_000) // congestion tail
			}
			i := metrics.LatencyBucketOf(time.Duration(v))
			wk.buckets[i]++
			lo, hi = min(lo, i), max(hi, i)
			sum += v
			if o == 0 || v < vmin {
				vmin = v
			}
			vmax = max(vmax, v)
			sh.observe(v)
		}
		b.BeginHist(telemHists[h], sum, vmin, vmax)
		for i := lo; i <= hi; i++ {
			if n := wk.buckets[i]; n != 0 {
				b.Bucket(i, n)
				wk.buckets[i] = 0
			}
		}
		b.EndHist()
	}
	data := b.Finish()
	off := len(wk.buf)
	wk.buf = append(wk.buf, data...)
	wk.reports = append(wk.reports, report{off: off, end: len(wk.buf), dup: xorshift(rng)%100 == 0})
}

// ingest delivers the worker's reports, the marked ones twice.
func (wk *churnWorker) ingest(col *telemetry.Collector, seq uint64, now time.Time) {
	for _, r := range wk.reports {
		data := wk.buf[r.off:r.end]
		wk.reportBytes += int64(len(data))
		got, err := col.Ingest(data, now)
		if err != nil || got.Resync || got.Ack != seq || got.Duplicate {
			wk.failures = append(wk.failures, fmt.Sprintf("ingest: %+v %v", got, err))
			continue
		}
		if r.dup {
			wk.dups++
			wk.reportBytes += int64(len(data))
			if got, err := col.Ingest(data, now); err == nil && got.Duplicate && got.Ack == seq {
				wk.dupsDropped++
			}
		}
	}
}

// verifyConverged checks, after the update round, that every agent holds the
// new generation and that each sampled client's patched file is
// byte-identical to a fresh full download.
func (cp *controlPlane) verifyConverged(res *epochResult, agents []simAgent, workers []churnWorker) (mismatched int) {
	stale := 0
	for i := range agents {
		a := &agents[i]
		name := cp.names[a.server]
		if a.client == nil {
			if a.etag != cp.ctrl.ETag(name) {
				stale++
			}
			continue
		}
		if a.etag != cp.ctrl.Version() {
			stale++
		}
		patched, err1 := a.client.Fetch(context.Background(), name) // a 304 from the client's cache
		full, err2 := workers[0].full.Fetch(context.Background(), name)
		res.attempted += 2
		if err1 != nil || err2 != nil {
			mismatched++
			continue
		}
		pb, _ := pinglist.Marshal(patched)
		fb, _ := pinglist.Marshal(full)
		if !bytes.Equal(pb, fb) {
			mismatched++
		}
	}
	res.check(stale == 0, "%d agents not on the new generation after the update round", stale)
	res.check(mismatched == 0, "%d sampled clients hold a file that differs from the full body", mismatched)
	return mismatched
}
