package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pingmesh"
	"pingmesh/internal/fleet"
	"pingmesh/internal/probe"
	"pingmesh/internal/topology"
)

// TestOfflineEqualsTestbed exports one seeded SimTestbed hour both ways — the
// store's PMB1 extents as files, the same probes as CSV — and requires every
// row pingmesh-dsa prints from either to be the row the testbed's own
// AnalyzeWindow published, with and without -heatmap.
func TestOfflineEqualsTestbed(t *testing.T) {
	const topoPath, seed = "../../examples/topology.json", 1
	spec := loadSpec(t, topoPath)
	build := func() *pingmesh.SimTestbed {
		tb, err := pingmesh.NewSimTestbed(spec, pingmesh.SimOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	tb := build()
	from := tb.Clock.Now()
	if err := tb.RunWindow(time.Hour); err != nil {
		t.Fatal(err)
	}
	to := tb.Clock.Now()
	if err := tb.AnalyzeWindow(from, to); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := printTables(&want, tb.DB()); err != nil {
		t.Fatal(err)
	}
	tables := want.String()
	printHeatmap(&want, "DC1", tb.Pipeline.Heatmaps()["DC1"])
	if !strings.Contains(tables, "scope=dc/DC1 window_start=2026-07-01T00:00:00Z window_end=2026-07-01T01:00:00Z probes=115200 ") {
		t.Fatalf("testbed tables lack the dc/DC1 row of 115,200 probes:\n%s", tables)
	}

	dir := t.TempDir()
	pmb1, stored := exportExtents(t, tb, dir)
	var csv []string
	// The same probes as an agent's -log holds them: RunWindow's runner (its
	// seed is the testbed's, mixed with the window start) over an identical
	// fabric, one CSV file per source server.
	ref := build()
	var mu sync.Mutex // the runner calls its sink from every worker
	logs := map[pingmesh.ServerID][]byte{}
	runner := &fleet.Runner{Net: ref.Net, Lists: ref.Pinglists(), Seed: seed ^ uint64(from.UnixNano())}
	if err := runner.Run(from, to, func(src pingmesh.ServerID, recs []pingmesh.Record) {
		mu.Lock()
		logs[src] = probe.AppendBatch(logs[src], recs)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for src, data := range logs {
		csv = append(csv, filepath.Join(dir, fmt.Sprintf("server%d.csv", src)))
		if err := os.WriteFile(csv[len(csv)-1], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, input := range []struct {
		name  string
		files []string
	}{{"pmb1", pmb1}, {"csv", csv}} {
		for _, c := range []struct {
			flags []string
			want  string
		}{
			{[]string{"-topology", topoPath}, tables},
			{[]string{"-topology", topoPath, "-heatmap", "DC1"}, want.String()},
		} {
			var out bytes.Buffer
			if err := run(append(c.flags, input.files...), &out); err != nil {
				t.Fatalf("%s %v: %v", input.name, c.flags, err)
			}
			loaded, rows, _ := strings.Cut(out.String(), "\n")
			if !strings.HasPrefix(loaded, "loaded 179520 probes in 6 windows, 2026-07-01T00:00:00Z to 2026-07-01T01:00:00Z") {
				t.Errorf("%s: %s", input.name, loaded)
			}
			if rows != c.want {
				t.Errorf("%s %v prints\n%s\nthe testbed published\n%s", input.name, c.flags, rows, c.want)
			}
		}
	}
	// Votes need raw records: over the PMB1 export -diagnose must say how many
	// probes it ranked without, not present 29 records as the fleet.
	for _, c := range []struct {
		files []string
		want  string
	}{
		{pmb1, "diagnosis: observed=29 failures=0; 179491 sketched probes not observed"},
		{csv, "diagnosis: observed=179520 failures=0; 0 sketched probes not observed"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-topology", topoPath, "-diagnose"}, c.files...), &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("-diagnose output lacks %q:\n%s", c.want, out.String())
		}
	}
	// Without a topology: the two keyless jobs count sketched probes too.
	var fromPMB1, fromCSV bytes.Buffer
	if err := run(pmb1, &fromPMB1); err != nil {
		t.Fatal(err)
	}
	if err := run(csv, &fromCSV); err != nil {
		t.Fatal(err)
	}
	if got := fromPMB1.String(); got != fromCSV.String() || !strings.Contains(got, "\nintra-dc: n=176640 ") || !strings.Contains(got, "\ninter-dc: n=2880 ") {
		t.Errorf("summary over PMB1:\n%sover CSV:\n%s", got, fromCSV.String())
	}
	t.Logf("store: %d extents, %d bytes; csv: %d files", len(pmb1), stored, len(csv))
}

// exportExtents writes every extent of the testbed's store to its own PMB1
// file in dir and returns the files and the bytes written.
func exportExtents(t *testing.T, tb *pingmesh.SimTestbed, dir string) (files []string, stored int) {
	t.Helper()
	for _, stream := range tb.Store.Streams("pingmesh") {
		for i := 0; i < tb.Store.NumExtents(stream); i++ {
			data, err := tb.Store.ReadExtent(stream, i)
			if err != nil {
				t.Fatal(err)
			}
			stored += len(data)
			files = append(files, filepath.Join(dir, fmt.Sprintf("extent%d.pmb1", len(files))))
			if err := os.WriteFile(files[len(files)-1], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files, stored
}

// loadSpec reads a topology spec file.
func loadSpec(t *testing.T, path string) topology.Spec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := topology.ReadSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestExportsOffTheHourGrid runs pingmesh-dsa over exports whose span is not
// one whole hour: 90 minutes from 00:20, and 30 hours — more than the 25 hour
// partials the daily jobs keep — of a small fleet. The 10-minute jobs analyse
// the windows the data covers; the hourly and daily jobs analyse the whole
// hours around them, which every pod row spans.
func TestExportsOffTheHourGrid(t *testing.T) {
	small := topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 1, PodsPerPodset: 2, ServersPerPod: 2, LeavesPerPodset: 1, Spines: 1},
	}}
	for _, c := range []struct {
		spec    topology.Spec
		start   time.Time
		d       time.Duration
		want    []string
		podSpan string
	}{
		{loadSpec(t, "../../examples/topology.json"), time.Date(2026, 7, 1, 0, 20, 0, 0, time.UTC), 90 * time.Minute, []string{
			"loaded 269280 probes in 9 windows, 2026-07-01T00:20:00Z to 2026-07-01T01:50:00Z\n",
			"\nscope=dc/DC1 window_start=2026-07-01T00:20:00Z window_end=2026-07-01T01:50:00Z probes=172800 p50=282.795µs p99=684.761µs drop_rate=8.101851851851852e-05 ",
		}, " window_start=2026-07-01T00:00:00Z window_end=2026-07-01T02:00:00Z "},
		{small, time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC), 30 * time.Hour, []string{
			" in 180 windows, 2026-07-01T00:00:00Z to 2026-07-02T06:00:00Z\n",
			"\n-- drop_rates --\ndc=DC1 ",
		}, " window_start=2026-07-01T00:00:00Z window_end=2026-07-02T06:00:00Z "},
	} {
		tb, err := pingmesh.NewSimTestbed(c.spec, pingmesh.SimOptions{Seed: 1, Start: c.start})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.RunWindow(c.d); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		files, _ := exportExtents(t, tb, dir)
		topoPath := filepath.Join(dir, "topology.json")
		data, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(topoPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(append([]string{"-topology", topoPath}, files...), &out); err != nil {
			t.Fatalf("%v from %v: %v", c.d, c.start, err)
		}
		got := out.String()
		for _, want := range c.want {
			if !strings.Contains(got, want) {
				t.Fatalf("%v from %v: output lacks %q:\n%s", c.d, c.start, want, got)
			}
		}
		pods := 0
		for _, line := range strings.Split(got, "\n") {
			if strings.HasPrefix(line, "scope=pod/") {
				pods++
				if !strings.Contains(line, c.podSpan) {
					t.Errorf("%v from %v: pod row not over%s: %s", c.d, c.start, c.podSpan, line)
				}
			}
		}
		if pods == 0 {
			t.Fatalf("%v from %v: no pod rows:\n%s", c.d, c.start, got)
		}
	}
}

// TestFlagDependencies: a flag that only qualifies another is an error
// without it, not silently ignored.
func TestFlagDependencies(t *testing.T) {
	for _, args := range [][]string{
		{"-heatmap", "DC1", "x.pmb1"},
		{"-diagnose", "x.pmb1"},
		{"-topology", "../../examples/topology.json", "-svg", "out.svg", "x.pmb1"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "require") {
			t.Errorf("%v: %v", args, err)
		}
	}
}
