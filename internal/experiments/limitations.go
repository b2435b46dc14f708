package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pingmesh/internal/netsim"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// ICWResult reproduces the §6.4 limitation: Pingmesh measures single-packet
// RTT only, so it missed a live-site incident where a configuration bug
// reset the TCP initial congestion window (ICW) from 16 to 4. Long-distance
// sessions needing multiple round trips slowed by hundreds of
// milliseconds, while every Pingmesh metric stayed green.
type ICWResult struct {
	// PingmeshRTTBefore/After are the single-packet RTTs Pingmesh sees —
	// identical, which is exactly the blind spot.
	PingmeshRTTBefore time.Duration
	PingmeshRTTAfter  time.Duration
	// SessionBefore/After are the completion times of a 256KB
	// cross-DC transfer with ICW 16 vs ICW 4.
	SessionBefore time.Duration
	SessionAfter  time.Duration
}

// transferRounds returns how many round trips a transfer of size bytes
// needs with the given initial congestion window (slow start, MSS 1460,
// window doubling per round, no loss).
func transferRounds(size, icw int) int {
	const mss = 1460
	segments := (size + mss - 1) / mss
	rounds := 0
	window := icw
	for segments > 0 {
		segments -= window
		window *= 2
		rounds++
	}
	return rounds
}

// LimitationICW measures both what Pingmesh sees (SYN RTT) and what users
// see (multi-round-trip session time) before and after the ICW regression.
func LimitationICW(opts Options) (*ICWResult, error) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
		{Name: "DC2", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		return nil, err
	}
	net, err := netsim.New(top, netsim.Config{Profiles: []netsim.Profile{netsim.DC2Profile()}})
	if err != nil {
		return nil, err
	}
	// Long-distance: a cross-DC pair (~25ms RTT), where multi-round-trip
	// session time is dominated by round trips.
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[1].Podsets[0].Pods[0].Servers[0]
	pairs := [][2]topology.ServerID{{src, dst}}
	start := time.Unix(1751328000, 0).UTC()
	n := opts.probes(20_000)
	before := measureDist(net, pairs, n, 0, start, opts.seed()+61, runtime.NumCPU())
	after := measureDist(net, pairs, n, 0, start, opts.seed()+62, runtime.NumCPU())

	rtt := before.Percentile(0.5)
	const transfer = 256 << 10
	return &ICWResult{
		PingmeshRTTBefore: rtt,
		PingmeshRTTAfter:  after.Percentile(0.5),
		SessionBefore:     rtt + time.Duration(transferRounds(transfer, 16))*rtt,
		SessionAfter:      rtt + time.Duration(transferRounds(transfer, 4))*rtt,
	}, nil
}

// Report renders the limitation comparison.
func (r *ICWResult) Report() Report {
	return Report{
		ID:    "§6.4 limitation: single-packet RTT",
		Title: "The ICW 16->4 regression Pingmesh could not see",
		Rows: []Row{
			{"Pingmesh RTT (ICW 16)", "unchanged", fmtDur(r.PingmeshRTTBefore)},
			{"Pingmesh RTT (ICW 4)", "unchanged", fmtDur(r.PingmeshRTTAfter)},
			{"256KB session (ICW 16)", "baseline", fmtDur(r.SessionBefore)},
			{"256KB session (ICW 4)", "+hundreds of ms", fmtDur(r.SessionAfter)},
		},
		Notes: []string{
			"single-packet RTT detects reachability and per-packet latency, not multi-round-trip",
			"behaviour — Pingmesh's acknowledged blind spot (§6.4)",
		},
	}
}

// ScaleMathResult validates our record format against the paper's
// production arithmetic (§1, §3.5): ~200 billion probes and 24TB of
// latency data per day, more than 2Gb/s of upload.
type ScaleMathResult struct {
	BytesPerRecord float64
	// ProbesPerDay and TBPerDay are projections at the paper's scale from
	// our record encoding and the pinglist fan-out.
	ProbesPerDay float64
	TBPerDay     float64
	UploadGbps   float64
}

// ScaleMath measures the real encoded record size and projects fleet-wide
// volume at the paper's quoted scale.
func ScaleMath(opts Options) (*ScaleMathResult, error) {
	// Measure actual bytes per CSV record from a realistic batch.
	recs := make([]probe.Record, 0, 1000)
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 2, PodsPerPodset: 3, ServersPerPod: 4, LeavesPerPodset: 2, Spines: 4},
	}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 1000; i++ {
		recs = append(recs, probe.Record{
			Start:   time.Unix(1751328000, int64(i)).UTC(),
			Src:     top.Server(topology.ServerID(i % 24)).Addr,
			SrcPort: uint16(32768 + i),
			Dst:     top.Server(topology.ServerID((i + 7) % 24)).Addr,
			DstPort: 8765,
			Class:   probe.IntraDC,
			RTT:     time.Duration(200+i) * time.Microsecond,
		})
	}
	perRecord := float64(len(probe.EncodeBatch(recs))) / float64(len(recs))

	// Paper scale: O(1M) servers; each probes 2000-5000 peers. With our
	// default intervals (10s intra-pod, 30s intra-DC), a 2500-peer server
	// sends ~100 probes/s... the paper quotes 200B probes/day fleet-wide,
	// i.e. ~2.3M probes/s. Use the paper's own probe count and our record
	// size to project storage.
	const probesPerDay = 200e9
	bytesPerDay := probesPerDay * perRecord
	return &ScaleMathResult{
		BytesPerRecord: perRecord,
		ProbesPerDay:   probesPerDay,
		TBPerDay:       bytesPerDay / 1e12,
		UploadGbps:     bytesPerDay * 8 / 86400 / 1e9,
	}, nil
}

// Report renders the scale arithmetic.
func (r *ScaleMathResult) Report() Report {
	return Report{
		ID:    "§3.5 data volume",
		Title: "Record size x paper probe rate vs the paper's storage numbers",
		Rows: []Row{
			{"probes/day", "more than 200 billion", fmt.Sprintf("%.0e (paper's rate)", r.ProbesPerDay)},
			{"bytes/record", "(unstated)", fmt.Sprintf("%.0f (our CSV)", r.BytesPerRecord)},
			{"storage/day", "24 TB", fmt.Sprintf("%.1f TB", r.TBPerDay)},
			{"upload rate", "more than 2 Gb/s", fmt.Sprintf("%.1f Gb/s", r.UploadGbps)},
		},
		Notes: []string{"the paper's 24TB/day over 200B probes implies ~120B per record: CSV-like, as here"},
	}
}
