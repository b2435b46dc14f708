package scope

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/cosmos"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
)

var t0 = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func mkRecord(i int, rtt time.Duration, errStr string) probe.Record {
	return probe.Record{
		Start: t0.Add(time.Duration(i) * time.Minute),
		Src:   netip.AddrFrom4([4]byte{10, 0, byte(i % 3), 1}),
		Dst:   netip.AddrFrom4([4]byte{10, 0, 9, 9}),
		RTT:   rtt,
		Err:   errStr,
	}
}

// seedStore writes n records split across two daily streams with small
// extents, so a job gets real parallel work.
func seedStore(t *testing.T, n int) *cosmos.Store {
	t.Helper()
	store, err := cosmos.NewStore(3, cosmos.Config{ExtentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := mkRecord(i, time.Duration(200+i)*time.Microsecond, "")
		stream := fmt.Sprintf("pingmesh/2026-07-0%d", 1+i%2)
		if err := store.Append(stream, probe.EncodeBatch([]probe.Record{r})); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// refRun is the reference Run is tested against: the job evaluated a record
// at a time straight off the store — probe.Scanner, the span, Where,
// KeyBytes, then LatencyStats.Add or AddSketch — sharing no code with the
// fold.
func refRun(t *testing.T, job Job) *Result {
	t.Helper()
	res := &Result{}
	res.Groups = make(map[string]*analysis.LatencyStats)
	store := job.Source.Store
	var sc probe.Scanner
	var rep probe.Record
	for _, stream := range store.Streams(job.Source.StreamPrefix) {
		for i := 0; i < store.NumExtents(stream); i++ {
			data, err := store.ReadExtent(stream, i)
			if err != nil {
				t.Fatal(err)
			}
			sc.Reset(data)
			for kind := sc.ScanEntry(); kind != probe.EntryEOF; kind = sc.ScanEntry() {
				if sc.RowErr() != nil {
					res.ParseErrors++
					continue
				}
				r, n := &rep, uint64(1)
				var sk *probe.Sketch
				if kind == probe.EntrySketch {
					sk = sc.Sketch()
					sk.FillRecord(&rep)
					n = sk.Records()
				} else {
					r = sc.Record()
				}
				res.Scanned += n
				if (!job.From.IsZero() && r.Start.Before(job.From)) || (!job.To.IsZero() && !r.Start.Before(job.To)) {
					continue
				}
				if job.Where != nil && !job.Where(r) {
					continue
				}
				var key []byte
				if job.KeyBytes != nil {
					var ok bool
					if key, ok = job.KeyBytes(nil, r); !ok {
						continue
					}
				}
				st := res.Groups[string(key)]
				if st == nil {
					st = analysis.NewLatencyStats()
					if job.TalliesOnly {
						st = analysis.NewTallies()
					}
					res.Groups[string(key)] = st
				}
				if sk != nil {
					st.AddSketch(sk)
				} else {
					st.Add(r)
				}
				res.Records += n
			}
		}
	}
	return res
}

// runJob runs the job and requires its result to be refRun's.
func runJob(t *testing.T, job Job) *Result {
	t.Helper()
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := refRun(t, job)
	if res.Records != want.Records || res.Scanned != want.Scanned || res.ParseErrors != want.ParseErrors || len(res.Groups) != len(want.Groups) {
		t.Fatalf("job %q: records/scanned/errors/groups %d/%d/%d/%d, the reference %d/%d/%d/%d", job.Name,
			res.Records, res.Scanned, res.ParseErrors, len(res.Groups), want.Records, want.Scanned, want.ParseErrors, len(want.Groups))
	}
	for k, st := range want.Groups {
		got, ok := res.Groups[k]
		if !ok {
			t.Fatalf("job %q: no group %q", job.Name, k)
		}
		compareStats(t, k, got, st)
	}
	return res
}

func TestRunAggregatesEverything(t *testing.T) {
	store := seedStore(t, 200)
	res := runJob(t, Job{Name: "all", Source: Source{Store: store, StreamPrefix: "pingmesh/"}})
	if res.Records != 200 || res.Scanned != 200 {
		t.Fatalf("Records=%d Scanned=%d, want 200", res.Records, res.Scanned)
	}
	if res.ParseErrors != 0 {
		t.Fatalf("ParseErrors = %d", res.ParseErrors)
	}
	if res.Get("").Total() != 200 {
		t.Fatalf("group total = %d", res.Get("").Total())
	}
}

func TestRunStreamPrefixSelects(t *testing.T) {
	store := seedStore(t, 100)
	res := runJob(t, Job{Name: "day1", Source: Source{Store: store, StreamPrefix: "pingmesh/2026-07-01"}})
	if res.Records != 50 {
		t.Fatalf("Records = %d, want 50", res.Records)
	}
}

func TestRunWhereFilters(t *testing.T) {
	store := seedStore(t, 100)
	res := runJob(t, Job{
		Name:   "filtered",
		Source: Source{Store: store, StreamPrefix: "pingmesh/"},
		Where:  func(r *probe.Record) bool { return r.Src.As4()[2] == 0 },
	})
	// Src third octet cycles 0,1,2: about a third match.
	if res.Records < 30 || res.Records > 37 {
		t.Fatalf("Records = %d, want ~34", res.Records)
	}
}

func TestRunGroupsByKey(t *testing.T) {
	store := seedStore(t, 90)
	res := runJob(t, Job{
		Name:     "grouped",
		Source:   Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) { return r.Src.AppendTo(dst), true },
	})
	if len(res.Groups) != 3 {
		t.Fatalf("%d groups, want 3", len(res.Groups))
	}
	var total uint64
	for _, st := range res.Groups {
		total += st.Total()
	}
	if total != 90 {
		t.Fatalf("group totals sum to %d", total)
	}
}

// TestRunKeySkips: a record the keyer answers ok=false for is scanned but not
// aggregated, and its neighbours still are.
func TestRunKeySkips(t *testing.T) {
	store := seedStore(t, 60)
	skipped := mkRecord(0, 0, "").Src
	res := runJob(t, Job{
		Name:   "skippy",
		Source: Source{Store: store, StreamPrefix: "pingmesh/"},
		KeyBytes: func(dst []byte, r *probe.Record) ([]byte, bool) {
			return r.Src.AppendTo(dst), r.Src != skipped
		},
	})
	if res.Records != 40 || res.Scanned != 60 || len(res.Groups) != 2 {
		t.Fatalf("Records=%d Scanned=%d groups=%d, want 40 of 60 in 2", res.Records, res.Scanned, len(res.Groups))
	}
}

func TestRunTimeWindow(t *testing.T) {
	store := seedStore(t, 120) // records at t0 + i minutes
	res := runJob(t, Job{
		Name:   "window",
		Source: Source{Store: store, StreamPrefix: "pingmesh/"},
		From:   t0.Add(30 * time.Minute),
		To:     t0.Add(60 * time.Minute),
	})
	if res.Records != 30 {
		t.Fatalf("Records = %d, want 30", res.Records)
	}
}

func TestRunSkipsCorruptRows(t *testing.T) {
	store := seedStore(t, 10)
	store.Append("pingmesh/2026-07-01", []byte("this is not a record\n"))
	res := runJob(t, Job{Name: "corrupt", Source: Source{Store: store, StreamPrefix: "pingmesh/"}})
	if res.Records != 10 || res.ParseErrors != 1 {
		t.Fatalf("Records=%d ParseErrors=%d", res.Records, res.ParseErrors)
	}
}

func TestRunNoStore(t *testing.T) {
	if _, err := Run(Job{Name: "nil"}); err == nil {
		t.Fatal("Run without store succeeded")
	}
}

func TestRunEmptyStore(t *testing.T) {
	store, _ := cosmos.NewStore(1, cosmos.Config{})
	res := runJob(t, Job{Name: "empty", Source: Source{Store: store, StreamPrefix: ""}})
	if res.Records != 0 || len(res.Groups) != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	// Get on a missing group returns an empty aggregate, not nil.
	if res.Get("missing").Total() != 0 {
		t.Fatal("Get(missing) not empty")
	}
}

// jobRun is one invocation a scheduled test job saw: its window and the
// clock when it started.
type jobRun struct{ from, to, at time.Time }

// TestJobManagerRunsOnCadence: jobs scheduled at hh:03:17 run on the window
// grid, not seventeen seconds past three minutes past it — first at hh:10:00
// with [hh:00, hh:10), an hourly job at the hour with the hour — and no run
// is handed a window that ends ahead of the clock, also when its timer fires
// late.
func TestJobManagerRunsOnCadence(t *testing.T) {
	clock := simclock.NewSim(t0.Add(3*time.Minute + 17*time.Second))
	m := NewJobManager(clock)
	defer m.StopAll()
	schedule := func(name string, every time.Duration) chan jobRun {
		ch := make(chan jobRun, 1)
		m.Schedule(name, every, func(from, to time.Time) error {
			ch <- jobRun{from, to, clock.Now()}
			return nil
		})
		return ch
	}
	// next takes one run off ch and waits until its job accepts the next
	// boundary, so that the caller may move the clock.
	next := func(ch chan jobRun, every time.Duration, wantTo time.Time) {
		t.Helper()
		select {
		case r := <-ch:
			if !r.to.Equal(wantTo) || r.to.Sub(r.from) != every || r.to.After(r.at) {
				t.Fatalf("run at %v got [%v, %v), want the %v ending %v", r.at, r.from, r.to, every, wantTo)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no run for the window ending %v", wantTo)
		}
		m.Wait()
	}
	tenMin := schedule("sla-10min", Every10Min)
	hourly := schedule("heatmap-1hour", Every1Hour)

	// Armed when Schedule returned: nothing to wait for before the clock moves.
	clock.Advance(6*time.Minute + 42*time.Second) // hh:09:59
	clock.Advance(time.Second)
	next(tenMin, Every10Min, t0.Add(Every10Min))
	for w := 2; w <= 6; w++ {
		clock.Advance(Every10Min)
		next(tenMin, Every10Min, t0.Add(time.Duration(w)*Every10Min))
	}
	next(hourly, Every1Hour, t0.Add(Every1Hour))
	select {
	case r := <-tenMin:
		t.Fatalf("a seventh ten-minute run in the first hour: %+v", r)
	default:
	}

	// One leap over two boundaries: the timer armed for 01:10 fires there, and
	// its run gets the window ending there.
	clock.Advance(25 * time.Minute)
	next(tenMin, Every10Min, t0.Add(Every1Hour+Every10Min))

	snap := m.Metrics().Snapshot()
	if snap.Counters["scope.job.sla-10min.runs"] < 6 || snap.Counters["scope.job.heatmap-1hour.runs"] != 1 {
		t.Fatalf("runs counters = %v", snap.Counters)
	}
}

func TestJobManagerCountsErrors(t *testing.T) {
	clock := simclock.NewSim(t0)
	m := NewJobManager(clock)
	defer m.StopAll()
	var runs atomic.Int64
	m.Schedule("flaky", time.Minute, func(from, to time.Time) error {
		runs.Add(1)
		return errors.New("boom")
	})
	waitFor(t, func() bool { return clock.PendingTimers() >= 1 })
	clock.Advance(time.Minute)
	waitFor(t, func() bool { return runs.Load() == 1 })
	m.Wait() // the error is counted after fn returns
	if m.Metrics().Snapshot().Counters["scope.job.flaky.errors"] != 1 {
		t.Fatal("error not counted")
	}
}

func TestJobManagerStop(t *testing.T) {
	clock := simclock.NewSim(t0)
	m := NewJobManager(clock)
	var runs atomic.Int64
	job := m.Schedule("stoppable", time.Minute, func(from, to time.Time) error {
		runs.Add(1)
		return nil
	})
	waitFor(t, func() bool { return clock.PendingTimers() >= 1 })
	clock.Advance(time.Minute)
	waitFor(t, func() bool { return runs.Load() == 1 })
	job.Stop()
	job.Stop() // idempotent
	// The job's goroutine has seen the stop once it has dropped its timer:
	// nothing is left for the clock to fire.
	waitFor(t, func() bool { return clock.PendingTimers() == 0 })
	clock.Advance(10 * time.Minute)
	m.Wait()
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times after Stop", runs.Load())
	}
	if job.Name() != "stoppable" {
		t.Fatal("name wrong")
	}
}

// TestJobManagerSkipsOverlappingRuns pins the no-stacking contract: a tick
// arriving while the previous invocation is still in flight is skipped and
// counted, and the next run after the slow one finishes gets the current
// grid-aligned window, not a backlog of stale ones.
func TestJobManagerSkipsOverlappingRuns(t *testing.T) {
	clock := simclock.NewSim(t0)
	m := NewJobManager(clock)
	defer m.StopAll()
	block := make(chan struct{})
	var started, finished atomic.Int64
	var lastFrom, lastTo atomic.Value
	m.Schedule("slow", Every10Min, func(from, to time.Time) error {
		started.Add(1)
		lastFrom.Store(from)
		lastTo.Store(to)
		<-block
		finished.Add(1)
		return nil
	})
	skippedCount := func() int64 {
		return m.Metrics().Snapshot().Counters["scope.job.slow.overlap_skipped"]
	}

	waitFor(t, func() bool { return clock.PendingTimers() >= 1 })
	clock.Advance(Every10Min) // first run starts and blocks
	waitFor(t, func() bool { return started.Load() == 1 })

	clock.Advance(Every10Min) // still in flight: skipped
	waitFor(t, func() bool { return skippedCount() == 1 })
	clock.Advance(Every10Min) // and again
	waitFor(t, func() bool { return skippedCount() == 2 })
	if started.Load() != 1 {
		t.Fatalf("overlapping run started: %d invocations", started.Load())
	}

	close(block) // unblock; later invocations return immediately
	waitFor(t, func() bool { return finished.Load() == 1 })
	m.Wait()                  // in flight until fn has returned
	clock.Advance(Every10Min) // next run proceeds normally
	waitFor(t, func() bool { return finished.Load() == 2 })

	// The post-skip run covers the CURRENT window [t0+30m, t0+40m) on the
	// grid — skipped windows are dropped, not replayed.
	from, to := lastFrom.Load().(time.Time), lastTo.Load().(time.Time)
	if !to.Equal(t0.Add(40*time.Minute)) || to.Sub(from) != Every10Min {
		t.Fatalf("post-skip window = [%v, %v), want [t0+30m, t0+40m)", from, to)
	}
	snap := m.Metrics().Snapshot()
	if snap.Counters["scope.job.slow.runs"] != 2 {
		t.Fatalf("runs counter = %d, want 2", snap.Counters["scope.job.slow.runs"])
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestRunHalfOpenWindows(t *testing.T) {
	store := seedStore(t, 60) // records at t0+i minutes, i in [0,60)
	fromOnly := runJob(t, Job{
		Name: "from", Source: Source{Store: store, StreamPrefix: "pingmesh/"},
		From: t0.Add(30 * time.Minute),
	})
	if fromOnly.Records != 30 {
		t.Fatalf("From-only records = %d, want 30", fromOnly.Records)
	}
	toOnly := runJob(t, Job{
		Name: "to", Source: Source{Store: store, StreamPrefix: "pingmesh/"},
		To: t0.Add(30 * time.Minute),
	})
	if toOnly.Records != 30 {
		t.Fatalf("To-only records = %d, want 30", toOnly.Records)
	}
}
