package scope

import (
	"sync"
	"time"

	"pingmesh/internal/metrics"
	"pingmesh/internal/probe"
	"pingmesh/internal/simclock"
)

// The DSA pipeline runs recurring jobs at three cadences (§3.5): 10-minute
// jobs are the near-real-time path, 1-hour and 1-day jobs handle SLA
// tracking, black-hole detection, and drop analysis.
const (
	Every10Min = probe.Window
	Every1Hour = time.Hour
	Every1Day  = 24 * time.Hour
)

// JobManager submits recurring jobs automatically. Each scheduled job gets
// its own goroutine and watchdog counters.
type JobManager struct {
	clock simclock.Clock
	reg   *metrics.Registry

	mu   sync.Mutex
	jobs []*ScheduledJob
}

// NewJobManager returns a manager on the given clock (nil for wall time).
func NewJobManager(clock simclock.Clock) *JobManager {
	if clock == nil {
		clock = simclock.NewReal()
	}
	return &JobManager{clock: clock, reg: metrics.NewRegistry()}
}

// Metrics exposes per-job run counters for the watchdogs (§3.5: all
// Pingmesh components are watched; the job manager reports whether jobs
// run and how long they take).
func (m *JobManager) Metrics() *metrics.Registry { return m.reg }

// ScheduledJob is one recurring submission.
type ScheduledJob struct {
	name  string
	every time.Duration
	stop  chan struct{}
	once  sync.Once

	mu       sync.Mutex
	inFlight bool
	idle     *sync.Cond // signalled, under mu, when inFlight clears
}

// Name returns the job's name.
func (s *ScheduledJob) Name() string { return s.name }

// Stop cancels future runs.
func (s *ScheduledJob) Stop() { s.once.Do(func() { close(s.stop) }) }

// Wait blocks until no invocation is in flight: the job accepts the next
// tick. Stop then Wait gives a clean shutdown. It may be called at any time,
// also while ticks are arriving.
func (s *ScheduledJob) Wait() {
	s.mu.Lock()
	for s.inFlight {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// begin claims the job for one invocation, or reports that one is running.
func (s *ScheduledJob) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inFlight {
		return false
	}
	s.inFlight = true
	return true
}

func (s *ScheduledJob) end() {
	s.mu.Lock()
	s.inFlight = false
	s.idle.Broadcast()
	s.mu.Unlock()
}

// Schedule runs fn at every multiple of every on the window grid
// (probe.WindowIndex: since the Unix epoch, so ten-minute, hourly and daily
// jobs fire where UTC's ten minutes, hours and days end), first at the next
// one after now. fn receives the window [from, to) that just ended: to is the
// latest grid point the clock has reached, so it is exact even when the timer
// fires late, and never lies ahead of the clock.
//
// The job is armed when Schedule returns: whoever moves the clock next cannot
// slip a boundary past a job that is still starting up. After each firing one
// timer is re-armed for the next boundary — a free-running ticker would keep
// the phase of the instant it was started at.
//
// Runs never overlap: if a boundary arrives while the previous invocation of
// fn is still in flight, the run is skipped — not queued — and counted on
// scope.job.<name>.overlap_skipped. A job that persistently overruns its
// interval processes every other window rather than stacking unboundedly;
// the skip counter is the watchdog signal that the interval is too tight.
func (m *JobManager) Schedule(name string, every time.Duration, fn func(from, to time.Time) error) *ScheduledJob {
	job := &ScheduledJob{name: name, every: every, stop: make(chan struct{})}
	job.idle = sync.NewCond(&job.mu)
	m.mu.Lock()
	m.jobs = append(m.jobs, job)
	m.mu.Unlock()

	runs := m.reg.Counter("scope.job." + name + ".runs")
	errors := m.reg.Counter("scope.job." + name + ".errors")
	skipped := m.reg.Counter("scope.job." + name + ".overlap_skipped")
	lastMS := m.reg.Gauge("scope.job." + name + ".last_ms")
	duration := m.reg.Histogram("scope.job." + name + ".duration")
	// boundary returns the latest grid point at or before t.
	boundary := func(t time.Time) time.Time {
		return time.Unix(0, probe.WindowIndex(t, every)*int64(every)).UTC()
	}
	now := m.clock.Now()
	last := boundary(now) // the end of the latest window not to run
	timer := m.clock.NewTimer(last.Add(every).Sub(now))
	go func() {
		for {
			select {
			case <-job.stop:
				timer.Stop()
				return
			case now := <-timer.C:
				to := boundary(now)
				timer = m.clock.NewTimer(to.Add(every).Sub(now))
				if !to.After(last) {
					continue // woken ahead of the boundary (a wall clock stepped back): wait it out
				}
				last = to
				if !job.begin() {
					skipped.Inc()
					continue
				}
				go func() {
					defer job.end()
					start := m.clock.Now()
					err := fn(to.Add(-every), to)
					runs.Inc()
					if err != nil {
						errors.Inc()
					}
					elapsed := m.clock.Since(start)
					lastMS.Set(int64(elapsed / time.Millisecond))
					duration.Observe(elapsed)
				}()
			}
		}
	}()
	return job
}

// Wait blocks until every job has been seen with no invocation in flight.
// With nothing moving the clock meanwhile, every job then accepts its next
// tick.
func (m *JobManager) Wait() {
	m.mu.Lock()
	jobs := append([]*ScheduledJob(nil), m.jobs...)
	m.mu.Unlock()
	for _, j := range jobs {
		j.Wait()
	}
}

// StopAll cancels every scheduled job.
func (m *JobManager) StopAll() {
	m.mu.Lock()
	jobs := append([]*ScheduledJob(nil), m.jobs...)
	m.mu.Unlock()
	for _, j := range jobs {
		j.Stop()
	}
}
