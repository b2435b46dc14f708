// Command pingmesh-uploadsim measures the sketch-upload pipeline against
// the raw CSV pipeline on a synthetic fleet: every server's 10-minute
// window of probes is shipped both ways, and the JSON report (BENCH_PR8.json
// in CI) records the upload-byte reduction (plain and gzip), per-class
// P50/P99 deltas in histogram buckets, and SLA row parity through the
// DSA fold path.
//
// Usage:
//
//	pingmesh-uploadsim -servers 2000 -peers 8 -out BENCH_PR8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pingmesh/internal/uploadsim"
)

func main() {
	servers := flag.Int("servers", 2000, "fleet size (rounded up to whole 1000-server podsets)")
	peers := flag.Int("peers", 8, "pinglist size per server")
	probes := flag.Int("probes-per-peer", 60, "probes per peer in the 10-minute window")
	flushes := flag.Int("flushes", 10, "upload flushes per window (the 1-minute cadence)")
	rawThreshold := flag.Duration("raw-threshold", time.Second, "RTT at or above which a record ships raw")
	extentSize := flag.Int("extent-size", 1<<20, "cosmos extent size in bytes")
	seed := flag.Int64("seed", 1, "record synthesizer seed")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	rep, err := uploadsim.Run(uploadsim.Config{
		Servers:          *servers,
		Peers:            *peers,
		ProbesPerPeer:    *probes,
		FlushesPerWindow: *flushes,
		RawThreshold:     *rawThreshold,
		ExtentSize:       *extentSize,
		Seed:             *seed,
	}, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingmesh-uploadsim: %v\n", err)
		os.Exit(1)
	}
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pingmesh-uploadsim: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pingmesh-uploadsim: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		logf("wrote %s", *out)
	}
}
