package main

import (
	"bytes"
	"fmt"
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
	f, err := os.Open(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topology.ReadSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
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
	var pmb1, csv []string
	var stored int
	for _, stream := range tb.Store.Streams("pingmesh") {
		for i := 0; i < tb.Store.NumExtents(stream); i++ {
			data, err := tb.Store.ReadExtent(stream, i)
			if err != nil {
				t.Fatal(err)
			}
			stored += len(data)
			pmb1 = append(pmb1, filepath.Join(dir, fmt.Sprintf("extent%d.pmb1", len(pmb1))))
			if err := os.WriteFile(pmb1[len(pmb1)-1], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
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
	// probes it ranked without, not present 22 records as the fleet.
	for _, c := range []struct {
		files []string
		want  string
	}{
		{pmb1, "diagnosis: observed=22 failures=0; 179498 sketched probes not observed"},
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
