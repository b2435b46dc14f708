package pinglist_test

import (
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/topology"
)

// churnBodies returns what an agent decodes on the benchmark's fleet_churn
// workload: the pinglist of a server in its 600-server two-DC topology
// (54 peers, 6.1 KB, as 580 of the 600 have; the first server is one of
// the 20 that also probe the other DC), and the delta the update round
// serves it, when each DC gains a podset.
func churnBodies(b *testing.B) (file, delta []byte) {
	b.Helper()
	generate := func(podsets int, version string) *pinglist.File {
		dc := func(name string) topology.DCSpec {
			return topology.DCSpec{Name: name, Podsets: podsets, PodsPerPodset: 10,
				ServersPerPod: 6, LeavesPerPodset: 2, Spines: 4}
		}
		top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{dc("DC1"), dc("DC2")}})
		if err != nil {
			b.Fatal(err)
		}
		files, err := core.GenerateSubset(top, core.DefaultGeneratorConfig(), version,
			time.Unix(1750000000, 0).UTC(), []topology.ServerID{1})
		if err != nil {
			b.Fatal(err)
		}
		return files[1]
	}
	base, updated := generate(5, "gen-1"), generate(6, "gen-2")
	file, err := pinglist.Marshal(base)
	if err != nil {
		b.Fatal(err)
	}
	d, err := pinglist.DiffFiles(base, updated)
	if err != nil {
		b.Fatal(err)
	}
	if delta, err = pinglist.MarshalDelta(d); err != nil {
		b.Fatal(err)
	}
	return file, delta
}

func BenchmarkUnmarshal(b *testing.B) {
	file, _ := churnBodies(b)
	f, err := pinglist.Unmarshal(file)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = pinglist.Unmarshal(file)
	}
	b.ReportMetric(float64(len(f.Peers)), "peers")
	sinkFile, sinkErr = f, err
}

func BenchmarkUnmarshalDelta(b *testing.B) {
	_, delta := churnBodies(b)
	d, err := pinglist.UnmarshalDelta(delta)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(delta)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err = pinglist.UnmarshalDelta(delta)
	}
	b.ReportMetric(float64(len(d.Ops)), "ops")
	sinkDelta, sinkErr = d, err
}

var (
	sinkFile  *pinglist.File
	sinkDelta *pinglist.Delta
	sinkErr   error
)
