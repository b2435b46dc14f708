package autopilot

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pingmesh/internal/simclock"
)

// RepairKind is the type of repair action.
type RepairKind string

// Repair kinds used by the Pingmesh detectors.
const (
	// RepairReload reboots a switch — fixes TCAM black-holes (§5.1).
	RepairReload RepairKind = "reload"
	// RepairIsolate takes a switch out of serving live traffic (§5.2).
	RepairIsolate RepairKind = "isolate"
	// RepairRMA replaces faulty hardware that a reload cannot fix.
	RepairRMA RepairKind = "rma"
)

// RepairAction is one repair command from a detector or the DM.
type RepairAction struct {
	Kind   RepairKind
	Device string
	Reason string
}

// ErrBudgetExhausted is returned when the daily repair budget is spent.
// The action is simply dropped; persistent faults will be detected again
// tomorrow (§5.1 caps reloads at 20 switches per day).
var ErrBudgetExhausted = errors.New("autopilot: daily repair budget exhausted")

// RepairsPerDay is the daily repair budget: §5.1 caps reloads at 20
// switches per day.
const RepairsPerDay = 20

// RepairService executes repair actions under a per-day budget.
type RepairService struct {
	clock    simclock.Clock
	executor func(RepairAction) error

	mu       sync.Mutex
	day      time.Time // start of the current budget window
	usedWndw int
	history  []ExecutedRepair
}

// ExecutedRepair is a log entry of one completed repair.
type ExecutedRepair struct {
	Action RepairAction
	At     time.Time
	Err    error
}

// NewRepairService creates a service with a budget of RepairsPerDay.
// executor performs the actual action (reloading a simulated switch,
// isolating it, ...).
func NewRepairService(clock simclock.Clock, executor func(RepairAction) error) *RepairService {
	if clock == nil {
		clock = simclock.NewReal()
	}
	if executor == nil {
		executor = func(RepairAction) error { return nil }
	}
	return &RepairService{clock: clock, executor: executor}
}

// Execute performs the action if budget remains today.
func (rs *RepairService) Execute(a RepairAction) error {
	rs.mu.Lock()
	now := rs.clock.Now()
	today := now.UTC().Truncate(24 * time.Hour)
	if !today.Equal(rs.day) {
		rs.day = today
		rs.usedWndw = 0
	}
	if rs.usedWndw >= RepairsPerDay {
		rs.mu.Unlock()
		return fmt.Errorf("%w (%d used)", ErrBudgetExhausted, RepairsPerDay)
	}
	rs.usedWndw++
	rs.mu.Unlock()

	err := rs.executor(a)
	rs.mu.Lock()
	rs.history = append(rs.history, ExecutedRepair{Action: a, At: now, Err: err})
	rs.mu.Unlock()
	return err
}

// BudgetRemaining reports how many repairs are left today.
func (rs *RepairService) BudgetRemaining() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	today := rs.clock.Now().UTC().Truncate(24 * time.Hour)
	if !today.Equal(rs.day) {
		return RepairsPerDay
	}
	return RepairsPerDay - rs.usedWndw
}

// History returns the executed repairs, oldest first.
func (rs *RepairService) History() []ExecutedRepair {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]ExecutedRepair(nil), rs.history...)
}
