package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pingmesh/internal/simclock"
)

// Freshness tracks when each pipeline stage last completed successfully.
// Marks are single atomic stores; reading an age is an atomic load plus a
// clock read, cheap enough for metrics gauges evaluated on every scrape.
type Freshness struct {
	clock simclock.Clock
	marks [numStages]atomic.Int64

	mu      sync.Mutex
	watches []func(now time.Time) StageHealth
}

// NewFreshness returns a Freshness on the given clock with no stage marked.
func NewFreshness(clock simclock.Clock) *Freshness {
	if clock == nil {
		clock = simclock.NewReal()
	}
	return &Freshness{clock: clock}
}

// Mark records that stage completed successfully now.
func (f *Freshness) Mark(s Stage) {
	if s >= numStages {
		return
	}
	f.marks[s].Store(f.clock.Now().UnixNano())
}

// MarkedAt returns when the stage last completed, or the zero time if it
// never has.
func (f *Freshness) MarkedAt(s Stage) time.Time {
	if s >= numStages {
		return time.Time{}
	}
	ns := f.marks[s].Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// AgeMillis returns the stage's age in milliseconds, or -1 if the stage
// has never completed. Milliseconds keep the gauges integer-valued while
// resolving well under the 5-minute budget granularity.
func (f *Freshness) AgeMillis(s Stage) int64 {
	if s >= numStages {
		return -1
	}
	ns := f.marks[s].Load()
	if ns == 0 {
		return -1
	}
	return (f.clock.Now().UnixNano() - ns) / int64(time.Millisecond)
}

// The §3.5 data-freshness budget: how stale each monitored stage may be
// before the pipeline is considered degraded. The perfcounter path (agent
// upload) is expected within 5 minutes; the Cosmos/SCOPE path (DSA cycle,
// and the portal snapshot derived from it) within 20 minutes.
const (
	UploadBudget   = 5 * time.Minute
	DSACycleBudget = 20 * time.Minute
	SnapshotBudget = 20 * time.Minute
)

// stageBudget returns the budget for a monitored stage, 0 for unmonitored.
func stageBudget(s Stage) time.Duration {
	switch s {
	case StageUpload:
		return UploadBudget
	case StageDSACycle:
		return DSACycleBudget
	case StagePublish:
		return SnapshotBudget
	}
	return 0
}

// StageHealth is one monitored stage's verdict inside a Health report.
type StageHealth struct {
	Stage    string `json:"stage"`
	Marked   bool   `json:"marked"`
	AgeMs    int64  `json:"age_ms"`
	BudgetMs int64  `json:"budget_ms"`
	Stale    bool   `json:"stale"`
}

// Health is the pipeline's freshness verdict. Status is "ok" when every
// monitored stage is within budget, "waiting" when some stage has never
// completed (a pipeline that is still booting should not page anyone), and
// "degraded" when a stage that has run before is now over budget.
type Health struct {
	Status string        `json:"status"`
	Stages []StageHealth `json:"stages"`
}

// Watch adds a stage whose verdict a mark cannot carry — the fold tier is
// stale only while it also has a backlog — to every Check from now on, so
// that each reader of the verdict (a /health on any port, the staleness
// watchdog) sees the same stage list. A watched stage that never ran is not
// "waiting". The stage, and what it closes over, lives as long as f does:
// one pipeline per tracer.
func (f *Freshness) Watch(stage func(now time.Time) StageHealth) {
	f.mu.Lock()
	f.watches = append(f.watches, stage)
	f.mu.Unlock()
}

// Check evaluates the marks, then the watched stages, against the §3.5
// budget.
func (f *Freshness) Check() Health {
	h := Health{Status: "ok"}
	for s := Stage(0); s < numStages; s++ {
		limit := stageBudget(s)
		if limit <= 0 {
			continue
		}
		age := f.AgeMillis(s)
		sh := StageHealth{
			Stage:    s.String(),
			Marked:   age >= 0,
			AgeMs:    age,
			BudgetMs: limit.Milliseconds(),
		}
		if !sh.Marked {
			if h.Status == "ok" {
				h.Status = "waiting"
			}
		} else if age > limit.Milliseconds() {
			sh.Stale = true
			h.Status = "degraded"
		}
		h.Stages = append(h.Stages, sh)
	}
	f.mu.Lock()
	watches := f.watches
	f.mu.Unlock()
	for _, stage := range watches {
		sh := stage(f.clock.Now())
		if sh.Stale {
			h.Status = "degraded"
		}
		h.Stages = append(h.Stages, sh)
	}
	return h
}

// ErrStale is wrapped by Health.Err for stale pipelines, so watchdogs can
// errors.Is against it.
var ErrStale = errors.New("pingmesh pipeline stale")

// Err returns nil unless the pipeline is degraded, in which case it names
// every stage over budget. "waiting" is not an error: watchdog checks run
// from process start, before the first cycle has had a chance to complete.
func (h Health) Err() error {
	if h.Status != "degraded" {
		return nil
	}
	var sb strings.Builder
	for _, s := range h.Stages {
		if !s.Stale {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s age %dms > budget %dms", s.Stage, s.AgeMs, s.BudgetMs)
	}
	return fmt.Errorf("%w: %s", ErrStale, sb.String())
}
