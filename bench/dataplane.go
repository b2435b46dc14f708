package main

// dataplane.go runs one epoch of a data-plane workload: a fresh pipeline,
// then per ten-minute window
//
//	gen → agent stage → clock advance → fold → 10-min cycle → publish
//	  → (hourly, daily) → reads
//
// identically with spans on or off. The program under test receives only
// generated records, never the seed or the workload's name.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/dsa"
	"pingmesh/internal/netsim"
	"pingmesh/internal/portal"
	"pingmesh/internal/probe"
	"pingmesh/internal/scope"
	"pingmesh/internal/topology"
)

// epochResult is what one epoch measured and checked.
type epochResult struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
	loopWall  time.Duration
	speed     float64 // machine speed during the epoch; see calibrate
	memSpeed  float64
	layers    map[string]float64 // layer → share of loop wall, traced epochs only
}

func (e *epochResult) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.fail(format, args...)
	}
}

func (e *epochResult) fail(format string, args ...any) {
	e.failed++
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// The incident timeline, in windows: healthy, then a ToR black-hole plus a
// persistent silent drop on a spine in DC1, then also a podset down in DC2
// for exactly the second hour (so that hour's heatmap shows the white
// cross), then everything repaired.
const (
	incidentInject = 3
	incidentPodset = 6
	incidentRepair = 12
)

type incident struct {
	tor, spine         topology.SwitchID
	affected, healthy  [2]string // server-name pairs for /triage and /diagnose
	downDC, downPodset int
}

func newIncident(top *topology.Topology) *incident {
	name := func(dc, podset, pod int) string {
		return top.Server(top.DCs[dc].Podsets[podset].Pods[pod].Servers[0]).Name
	}
	return &incident{
		tor: top.ToRs(0)[2], spine: top.DCs[0].Spines[0],
		affected: [2]string{name(0, 0, 0), name(0, 1, 0)},
		healthy:  [2]string{name(1, 0, 0), name(1, 0, 1)},
		downDC:   1, downPodset: 1,
	}
}

func (in *incident) apply(fabric *netsim.Network, w int) {
	switch w {
	case incidentInject:
		fabric.AddBlackhole(in.tor, netsim.Blackhole{MatchFraction: 0.6})
		fabric.SetRandomDrop(in.spine, 0.05, true)
	case incidentPodset:
		fabric.SetPodsetDown(in.downDC, in.downPodset, true)
	case incidentRepair:
		fabric.ReloadSwitch(in.tor)
		fabric.ReplaceSwitch(in.spine)
		fabric.SetPodsetDown(in.downDC, in.downPodset, false)
	}
}

func (in *incident) urls() []string {
	q := func(p [2]string) string { return "?src=" + p[0] + "&dst=" + p[1] }
	return []string{"/triage" + q(in.affected), "/diagnose" + q(in.affected),
		"/triage" + q(in.healthy), "/diagnose" + q(in.healthy)}
}

func (dp *dataPlane) close() { dp.web.close() }

// agentTally is what one agent-stage worker shipped.
type agentTally struct {
	batches, bytes, raw, sketches int64
	errs                          []error
}

// agentStage encodes and uploads every server's window from workers
// goroutines. With a recorder each batch step is a span under parent.
func (dp *dataPlane) agentStage(w int, from time.Time, rec *recorder, parent int32) agentTally {
	stream := cosmos.DailyStream("pingmesh")(from)
	var next atomic.Int64
	tallies := make([]agentTally, dp.workers)
	var wg sync.WaitGroup
	for wk := 0; wk < dp.workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[wk]
			var buf []byte
			var anomalies []probe.Record
			var sks []probe.PeerSketch
			var t0, t1 time.Time
			// lap closes the span of the step that just ran.
			lap := func(layer, name string, items, bytes int64) {
				if rec != nil {
					t1 = time.Now()
					rec.add(parent, layer, name, w, t0, t1, items, bytes)
					t0 = t1
				}
			}
			ship := func() {
				t.batches++
				t.bytes += int64(len(buf))
				if err := dp.store.Append(stream, buf); err != nil {
					t.errs = append(t.errs, err)
				}
				lap("cosmos", "append", 1, int64(len(buf)))
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dp.arena) {
					return
				}
				recs := dp.arena[i]
				if len(recs) == 0 {
					continue // a powered-off server probes nothing
				}
				if rec != nil {
					t0 = time.Now()
				}
				if dp.accs == nil {
					// The pre-sketch agent verbatim: every record as CSV, one
					// batch per upload flush.
					for f := 0; f < flushesPerWindow; f++ {
						chunk := recs[f*len(recs)/flushesPerWindow : (f+1)*len(recs)/flushesPerWindow]
						if len(chunk) == 0 {
							continue
						}
						buf = probe.AppendBatch(buf[:0], chunk)
						lap("probe", "csv_encode", int64(len(chunk)), int64(len(buf)))
						t.raw += int64(len(chunk))
						ship()
					}
				} else {
					acc := dp.accs[i]
					anomalies = anomalies[:0]
					for j := range recs {
						if r := &recs[j]; shipsRaw(r) {
							anomalies = append(anomalies, *r)
						} else {
							acc.Observe(r)
						}
					}
					sks = acc.CutBefore(acc.WindowIndex(from)+1, sks[:0])
					lap("agent", "sketch", int64(len(recs)), 0)
					buf = probe.AppendBinaryBatch(buf[:0], anomalies, sks)
					lap("probe", "pmb1_encode", int64(len(anomalies)+len(sks)), int64(len(buf)))
					t.raw += int64(len(anomalies))
					t.sketches += int64(len(sks))
					acc.Release(sks)
					lap("agent", "release", 0, 0)
					ship()
				}
				if dp.diag != nil {
					dp.diag.ObserveBatch(recs)
					lap("diagnosis", "observe", int64(len(recs)), 0)
				}
			}
		}()
	}
	wg.Wait()
	var sum agentTally
	for _, t := range tallies {
		sum.batches += t.batches
		sum.bytes += t.bytes
		sum.raw += t.raw
		sum.sketches += t.sketches
		sum.errs = append(sum.errs, t.errs...)
	}
	return sum
}

// dpTotals is what an epoch's windows add up to.
type dpTotals struct {
	probes, uploadBytes, rawShipped, sketches, appendErrs int64
	genWall, loopWall, cpuNonGen, genCPU, hourly, daily   time.Duration
	genAlloc, heapPeak                                    uint64
	lags, folds, cycles, refreshes, calib                 []time.Duration
	reads                                                 readStats
	rowsBad                                               int
}

// runDataPlaneEpoch builds a pipeline and drives shape.windows windows
// through it. rec is nil for an untraced epoch.
func runDataPlaneEpoch(shape dpShape, seed uint64, rec *recorder) (*epochResult, error) {
	res := &epochResult{metrics: map[string]float64{}}
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)

	setupStart := time.Now()
	dp, err := buildDataPlane(shape, seed)
	if err != nil {
		return nil, err
	}
	defer dp.close()
	rd := newReader(dp.web.url, dp.workers)
	defer rd.close()
	setup := time.Since(setupStart)

	oracle := newSLAOracle(dp.top, serviceName, dp.members)
	var in *incident
	var extra []string
	if shape.incident {
		in = newIncident(dp.top)
		extra = in.urls()
	}
	var arenaBytes uint64
	for _, recs := range dp.arena {
		arenaBytes += uint64(cap(recs)) * uint64(unsafe.Sizeof(probe.Record{}))
	}
	sink := func(src topology.ServerID, recs []probe.Record) {
		dp.arena[src] = append(dp.arena[src], recs...)
	}

	var t dpTotals
	for w := 0; w < shape.windows; w++ {
		from := simStart.Add(time.Duration(w) * window)
		to := from.Add(window)
		if in != nil {
			in.apply(dp.net, w)
		}
		for i := range dp.arena {
			dp.arena[i] = dp.arena[i][:0]
		}
		var m0, m1 runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&m0)
		}

		t0 := time.Now()
		root := rec.open(0, benchLayer, "window", w, 1, t0)
		c0 := cpuTime()
		dp.runner.Seed = seed ^ uint64(from.UnixNano())
		if err := dp.runner.Run(from, to, sink); err != nil {
			return nil, err
		}
		t1 := time.Now()
		c1 := cpuTime()
		var n int64
		for _, recs := range dp.arena {
			n += int64(len(recs))
		}
		rec.add(root, "fleet", "gen", w, t0, t1, n, 0)
		t.genWall += t1.Sub(t0)
		if rec != nil {
			runtime.ReadMemStats(&m1)
			t.genAlloc += m1.TotalAlloc - m0.TotalAlloc
			t1 = time.Now() // keep the stop-the-world read out of the agent stage
		}

		stage := rec.open(root, benchLayer, "agent_stage", w, dp.workers, t1)
		shipped := dp.agentStage(w, from, rec, stage)
		t2 := time.Now()
		rec.close(stage, t2, n, shipped.bytes)
		res.attempted += shipped.batches
		for _, err := range shipped.errs {
			res.fail("append: %v", err)
		}

		dp.clock.AdvanceTo(to)
		if dp.folding {
			for dp.pipe.FoldNow(); dp.pipe.MaxFoldBacklog() > 0; dp.pipe.FoldNow() {
			}
		}
		t3 := time.Now()
		rec.add(root, "dsa", "fold", w, t2, t3, 0, 0)
		if err := dp.pipe.RunTenMinute(from, to); err != nil {
			return nil, err
		}
		t4 := time.Now()
		rec.add(root, "dsa", "cycle10", w, t3, t4, 0, 0)
		if err := dp.portal.Refresh(); err != nil {
			return nil, err
		}
		t5 := time.Now()
		rec.add(root, "portal", "refresh", w, t4, t5, 0, 0)
		t.lags = append(t.lags, t5.Sub(t2))
		t.folds = append(t.folds, t3.Sub(t2))
		t.cycles = append(t.cycles, t4.Sub(t3))
		t.refreshes = append(t.refreshes, t5.Sub(t4))

		if (w+1)%6 == 0 {
			if err := dp.pipe.RunHourly(to.Add(-time.Hour), to); err != nil {
				return nil, err
			}
			t6 := time.Now()
			rec.add(root, "dsa", "hourly", w, t5, t6, 0, 0)
			t.hourly += t6.Sub(t5)
			// The incident's daily job runs while its faults are live, so
			// that the detection it feeds has something to find.
			if (in == nil && w == shape.windows-1) || (in != nil && w == incidentRepair-1) {
				if err := dp.pipe.RunDaily(simStart, to); err != nil {
					return nil, err
				}
				t7 := time.Now()
				rec.add(root, "dsa", "daily", w, t6, t7, 0, 0)
				t.daily += t7.Sub(t6)
			}
			t8 := time.Now()
			if err := dp.portal.Refresh(); err != nil {
				return nil, err
			}
			rec.add(root, "portal", "refresh", w, t8, time.Now(), 0, 0)
		}

		t9 := time.Now()
		epoch := dp.portal.Epoch()
		phase := rec.open(root, benchLayer, "reads", w, dp.workers, t9)
		ix, st := rd.fetchIndex(epoch, extra)
		t.reads.merge(st)
		rec.add(phase, "portal", "read_index", w, t9, time.Now(), 2, 0)
		t.reads.merge(rd.phase(ix.urls, shape.reads, epoch, rec, phase, w))
		t10 := time.Now()
		rec.close(phase, t10, 0, 0)
		rec.close(root, t10, n, shipped.bytes)
		c2 := cpuTime()

		t.probes += n
		t.uploadBytes += shipped.bytes
		t.rawShipped += shipped.raw
		t.sketches += shipped.sketches
		t.appendErrs += int64(len(shipped.errs))
		t.genCPU += c1 - c0
		t.loopWall += t10.Sub(t0)
		t.cpuNonGen += c2 - c1

		// Untimed from here: heap and machine-speed samples, then the
		// output checks.
		t.heapPeak = max(t.heapPeak, liveHeap())
		t.calib = append(t.calib, calibrate(dp.workers))
		bad := verifySLA(oracle.expect(dp.arena), ix.rows, from)
		t.rowsBad += len(bad)
		res.check(len(bad) == 0, "window %d: %v", w, bad)
		if in != nil {
			in.verify(res, dp, rd, w, to)
		}
	}
	res.attempted += int64(len(t.reads.lat))
	for _, f := range t.reads.failures {
		res.fail("%s", f)
	}
	res.loopWall = t.loopWall
	res.speed = speedOf(t.calib)

	m := res.metrics
	m["setup_s"] = setup.Seconds()
	m["items_per_s"] = float64(t.probes) / t.loopWall.Seconds()
	m["pipeline_items_per_s"] = float64(t.probes) / (t.loopWall - t.genWall).Seconds()
	m["cpu_s_per_mitem"] = t.cpuNonGen.Seconds() / (float64(t.probes) / 1e6)
	m["bytes_per_item"] = float64(t.uploadBytes) / float64(t.probes)
	m["heap_mb_peak"] = (float64(t.heapPeak) - float64(arenaBytes)) / 1e6
	if rec != nil {
		dp.layerMetrics(m, &t, rec)
		runtimeMetrics(m, &msStart, float64(t.probes)/1e6)
		res.finishTrace(rec)
	}
	return res, nil
}

// layerMetrics fills in the per-layer numbers of a traced epoch, from its
// spans and from side probes run after the loop so that they cost the loop
// nothing.
func (dp *dataPlane) layerMetrics(m map[string]float64, t *dpTotals, rec *recorder) {
	sums := rec.sums()
	sum := func(k string) spanSum {
		if s := sums[k]; s != nil {
			return *s
		}
		return spanSum{}
	}
	probes := float64(t.probes)
	m["fleet.gen_ns_per_probe"] = float64(t.genWall) / probes
	m["fleet.gen_cpu_ns_per_probe"] = float64(t.genCPU) / probes
	m["fleet.gen_alloc_b_per_probe"] = float64(t.genAlloc) / probes
	m["agent.sketch_ns_per_probe"] = float64(sum("agent.sketch").dur+sum("agent.release").dur) / probes
	m["agent.raw_share"] = float64(t.rawShipped) / probes
	m["agent.sketches_per_window"] = float64(t.sketches) / float64(dp.shape.windows)
	csv, pmb := sum("probe.csv_encode"), sum("probe.pmb1_encode")
	m["probe.csv_encode_ns_per_record"] = csv.nsPer(csv.items)
	m["probe.pmb1_encode_ns_per_entry"] = pmb.nsPer(pmb.items)
	app := sum("cosmos.append")
	m["cosmos.append_ns_per_batch"] = app.nsPer(app.n)
	m["cosmos.append_mb_per_s"] = app.mbPerS()
	m["cosmos.append_errors"] = float64(t.appendErrs)
	dp.sideProbes(m)

	shards := dp.pipe.ShardLags()
	var folded, stolen, maxFolded float64
	for _, l := range shards {
		folded += float64(l.Folded)
		stolen += float64(l.Stolen)
		maxFolded = max(maxFolded, float64(l.Folded))
	}
	m["shard.extents_folded"] = folded
	m["shard.extents_stolen"] = stolen
	if folded > 0 {
		m["shard.skew"] = maxFolded / (folded / float64(len(shards)))
	}
	m["dsa.fold_ms_p50"] = ms(quantile(t.folds, 0.5))
	m["dsa.cycle10_ms_p50"] = ms(quantile(t.cycles, 0.5))
	m["dsa.cycle10_growth"] = float64(t.cycles[len(t.cycles)-1]) / float64(t.cycles[0])
	m["dsa.hourly_ms"] = ms(t.hourly) / float64(dp.shape.windows/6)
	m["dsa.daily_ms"] = ms(t.daily)
	m["dsa.sla_rows"] = float64(dp.pipe.DB().Count(dsa.TableSLA))
	m["dsa.alerts_fired"] = float64(len(dp.pipe.Alerts()))
	m["dsa.rows_mismatched"] = float64(t.rowsBad)

	reads := float64(len(t.reads.lat))
	gauges := dp.portal.Metrics().Snapshot().Gauges
	m["portal.publish_lag_ms_p50"] = ms(quantile(t.lags, 0.5))
	m["portal.refresh_ms_p50"] = ms(quantile(t.refreshes, 0.5))
	m["portal.bodies"] = float64(gauges["portal.cached_bodies"])
	m["portal.body_bytes"] = float64(gauges["portal.cached_body_bytes"])
	m["portal.reads_per_s"] = reads / sum(benchLayer+".reads").dur.Seconds()
	m["portal.read_us_p50"] = us(quantile(t.reads.lat, 0.5))
	m["portal.read_us_p99"] = us(quantile(t.reads.lat, 0.99))
	m["portal.read_304_share"] = float64(t.reads.n304) / reads
	m["portal.read_errors"] = float64(len(t.reads.failures))
	m["portal.triage_us_p50"] = us(quantile(t.reads.triage, 0.5))
	m["portal.diagnose_us_p50"] = us(quantile(t.reads.diagnose, 0.5))
	obs := sum("diagnosis.observe")
	m["diagnosis.observe_ns_per_probe"] = obs.nsPer(obs.items)
}

// finishTrace turns the recorder's layer attribution into shares of the
// loop wall and the unaccounted remainder.
func (e *epochResult) finishTrace(rec *recorder) {
	byLayer, roots := rec.layerWall()
	e.layers = map[string]float64{}
	for layer, d := range byLayer {
		e.layers[layer] = float64(d) / float64(roots)
	}
	e.metrics["trace.unaccounted_pct"] = 100 * e.layers[benchLayer]
	e.metrics["trace.idle_pct"] = 100 * e.layers[idleLayer]
	e.metrics["machine.speed_pct"] = 100 * e.speed
	e.check(rec.dropped() == 0, "span recorder dropped %d spans", rec.dropped())
}

// sideProbes times single layers over the epoch's sealed extents: a store
// read, one scanner pass and one fresh fold of each.
func (dp *dataPlane) sideProbes(m map[string]float64) {
	keyer := &analysis.Keyer{Top: dp.top}
	folder := scope.NewFolder(simStart, window, []scope.FoldSpec{{
		Name:     "sla-dc",
		Where:    func(r *probe.Record) bool { return r.Class != probe.InterDC && r.PayloadLen == 0 },
		KeyBytes: keyer.AppendSrcDC,
	}}, nil)
	var (
		sc                    probe.Scanner
		read, scan, fold      time.Duration
		extents, entries, bad int64
		bytes, stored         int64
	)
	for _, name := range dp.store.Streams("pingmesh") {
		stored += int64(dp.store.TotalBytes(name))
		for i := 0; i < dp.store.SealedFrom(name); i++ {
			t0 := time.Now()
			data, err := dp.store.ReadExtent(name, i)
			t1 := time.Now()
			if err != nil {
				bad++
				continue
			}
			sc.Reset(data)
			for kind := sc.ScanEntry(); kind != probe.EntryEOF; kind = sc.ScanEntry() {
				entries++
				if sc.RowErr() != nil {
					bad++
				}
			}
			t2 := time.Now()
			folder.FoldExtent(data, simStart)
			t3 := time.Now()
			read += t1.Sub(t0)
			scan += t2.Sub(t1)
			fold += t3.Sub(t2)
			extents++
			bytes += int64(len(data))
		}
	}
	m["cosmos.extents_sealed"] = float64(extents)
	m["cosmos.stored_bytes"] = float64(stored)
	m["probe.parse_errors"] = float64(bad)
	if extents > 0 {
		m["cosmos.read_extent_us"] = us(read) / float64(extents)
		m["probe.scan_ns_per_entry"] = float64(scan) / float64(entries)
		m["probe.scan_mb_per_s"] = float64(bytes) / 1e6 / scan.Seconds()
		m["scope.fold_ns_per_entry"] = float64(fold) / float64(entries)
	}
	if dp.diag != nil {
		t0 := time.Now()
		dp.diag.Snapshot(portal.DefaultRankLimit)
		m["diagnosis.rank_ms"] = ms(time.Since(t0))
	}
}

// verify checks the incident's outputs at the windows where the timeline
// fixes them. Every check reads what a user of the portal would read.
func (in *incident) verify(res *epochResult, dp *dataPlane, rd *reader, w int, to time.Time) {
	getJSON := func(path string, into any) {
		r, err := get(rd.clients[0], rd.base+path, "", false, true)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			err = json.Unmarshal(r.body, into)
		}
		res.check(err == nil, "GET %s: %v", path, err)
	}
	type alert struct {
		Scope string    `json:"scope"`
		At    time.Time `json:"at"`
	}
	dc1Alert := func(after time.Time) bool {
		var alerts []alert
		getJSON("/alerts", &alerts)
		for _, a := range alerts {
			if a.Scope == "dc/"+dp.top.DCs[0].Name && a.At.After(after) {
				return true
			}
		}
		return false
	}
	switch w {
	case incidentInject:
		res.check(dc1Alert(to.Add(-time.Nanosecond)), "no dc/DC1 alert in the first snapshot after injection")
	case incidentPodset - 1:
		// Before the podset goes down: its dead servers out-vote everything.
		var ranking struct {
			Candidates []struct {
				Switch string `json:"switch"`
			} `json:"candidates"`
		}
		getJSON("/diagnose", &ranking)
		found := 0
		top2 := ranking.Candidates[:min(2, len(ranking.Candidates))]
		for _, c := range top2 {
			if c.Switch == dp.top.Switch(in.tor).Name || c.Switch == dp.top.Switch(in.spine).Name {
				found++
			}
		}
		res.metrics["diagnosis.true_in_top2"] = float64(found)
		res.check(found == 2, "ranking's top two are %v, want %s and %s", top2,
			dp.top.Switch(in.tor).Name, dp.top.Switch(in.spine).Name)
	case incidentRepair - 1:
		var hm struct {
			Pattern string `json:"pattern"`
			Podset  int    `json:"podset"`
		}
		getJSON("/heatmap/"+dp.top.DCs[in.downDC].Name, &hm)
		ok := hm.Pattern == "podset-down" && hm.Podset == in.downPodset
		res.metrics["viz.patterns_correct"] = b2f(ok)
		res.check(ok, "heatmap pattern %q podset %d, want podset-down %d", hm.Pattern, hm.Podset, in.downPodset)

		rows, err := dp.pipe.DB().Query(dsa.TableBlackholes)
		ok = err == nil && len(rows) > 0 && rows[0]["tor"] == dp.top.Switch(in.tor).Name
		res.metrics["blackhole.tor_correct"] = b2f(ok)
		res.check(ok, "daily detection did not name %s first: %v", dp.top.Switch(in.tor).Name, rows)

		var tri struct {
			Verdict string `json:"verdict"`
		}
		getJSON("/triage?src="+in.affected[0]+"&dst="+in.affected[1], &tri)
		res.check(tri.Verdict == portal.VerdictNetwork, "triage of the affected pair: %q", tri.Verdict)
		getJSON("/triage?src="+in.healthy[0]+"&dst="+in.healthy[1], &tri)
		res.check(tri.Verdict == portal.VerdictNotNetwork, "triage of the healthy pair: %q", tri.Verdict)
	case dp.shape.windows - 1:
		repaired := simStart.Add(incidentRepair * window)
		res.check(!dc1Alert(repaired), "dc/DC1 still alerting after repair")
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
