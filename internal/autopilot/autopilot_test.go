package autopilot

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pingmesh/internal/simclock"
)

var t0 = time.Date(2026, 7, 1, 6, 0, 0, 0, time.UTC)

func TestDeviceManagerEscalation(t *testing.T) {
	dm := NewDeviceManager()
	if dm.State("tor1") != Healthy {
		t.Fatal("unknown device not healthy")
	}
	if s := dm.ReportFailure("tor1"); s != Probation {
		t.Fatalf("first failure -> %v", s)
	}
	if s := dm.ReportFailure("tor1"); s != Failed {
		t.Fatalf("second failure -> %v", s)
	}
	bad := dm.Devices()
	if bad["tor1"] != Failed || len(bad) != 1 {
		t.Fatalf("Devices = %v", bad)
	}
	dm.ReportHealthy("tor1")
	if dm.State("tor1") != Healthy {
		t.Fatal("recovery not recorded")
	}
	// After recovery the escalation counter resets.
	if s := dm.ReportFailure("tor1"); s != Probation {
		t.Fatalf("failure after recovery -> %v", s)
	}
}

func TestDeviceStateString(t *testing.T) {
	if Healthy.String() != "healthy" || Probation.String() != "probation" || Failed.String() != "failed" {
		t.Fatal("state names wrong")
	}
	if DeviceState(7).String() != "state(7)" {
		t.Fatal("unknown state name")
	}
}

func TestWatchdogServiceReportsToDM(t *testing.T) {
	dm := NewDeviceManager()
	ws := NewWatchdogService(simclock.NewSim(t0), time.Minute, dm)
	var healthy bool
	ws.Register(Watchdog{
		Name:   "pinglists-generated",
		Device: "controller-1",
		Check: func() error {
			if healthy {
				return nil
			}
			return errors.New("no pinglists")
		},
	})
	ws.RunOnce()
	if dm.State("controller-1") != Probation {
		t.Fatalf("state = %v after one failure", dm.State("controller-1"))
	}
	if ws.Status()["pinglists-generated"] == nil {
		t.Fatal("status missing failure")
	}
	healthy = true
	ws.RunOnce()
	if dm.State("controller-1") != Healthy {
		t.Fatal("recovery not propagated")
	}
	if ws.Status()["pinglists-generated"] != nil {
		t.Fatal("status not cleared")
	}
}

func TestWatchdogServicePeriodic(t *testing.T) {
	clock := simclock.NewSim(t0)
	ws := NewWatchdogService(clock, time.Minute, nil)
	var mu sync.Mutex
	runs := 0
	ws.Register(Watchdog{Name: "tick", Check: func() error {
		mu.Lock()
		runs++
		mu.Unlock()
		return nil
	}})
	ws.Start()
	defer ws.Stop()
	waitFor(t, func() bool { return clock.PendingTimers() >= 1 })
	for i := 1; i <= 3; i++ {
		clock.Advance(time.Minute)
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return runs >= i
		})
	}
	ws.Stop()
	ws.Stop() // idempotent
}

func TestRepairServiceBudget(t *testing.T) {
	clock := simclock.NewSim(t0)
	var executed []RepairAction
	rs := NewRepairService(clock, func(a RepairAction) error {
		executed = append(executed, a)
		return nil
	})
	for i := 0; i < RepairsPerDay; i++ {
		if err := rs.Execute(RepairAction{Kind: RepairReload, Device: fmt.Sprintf("tor%d", i)}); err != nil {
			t.Fatalf("repair %d: %v", i, err)
		}
	}
	if rs.BudgetRemaining() != 0 {
		t.Fatalf("BudgetRemaining = %d", rs.BudgetRemaining())
	}
	err := rs.Execute(RepairAction{Kind: RepairReload, Device: "tor9"})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget repair: %v", err)
	}
	if len(executed) != RepairsPerDay {
		t.Fatalf("executed %d repairs", len(executed))
	}
	// Next day the budget resets.
	clock.Advance(24 * time.Hour)
	if rs.BudgetRemaining() != RepairsPerDay {
		t.Fatalf("budget after day roll = %d", rs.BudgetRemaining())
	}
	if err := rs.Execute(RepairAction{Kind: RepairReload, Device: "tor9"}); err != nil {
		t.Fatalf("repair after reset: %v", err)
	}
	if h := rs.History(); len(h) != RepairsPerDay+1 || h[RepairsPerDay].Action.Device != "tor9" {
		t.Fatalf("history = %v", h)
	}
}

func TestRepairServiceExecutorError(t *testing.T) {
	rs := NewRepairService(simclock.NewSim(t0), func(a RepairAction) error {
		return errors.New("switch did not come back")
	})
	if err := rs.Execute(RepairAction{Kind: RepairReload, Device: "tor0"}); err == nil {
		t.Fatal("executor error swallowed")
	}
	if h := rs.History(); len(h) != 1 || h[0].Err == nil {
		t.Fatal("failed repair not in history")
	}
	// Failures still consume budget (the reboot happened).
	if rs.BudgetRemaining() != RepairsPerDay-1 {
		t.Fatalf("BudgetRemaining = %d", rs.BudgetRemaining())
	}
}

func TestRepairServiceDefaultBudgetIs20(t *testing.T) {
	rs := NewRepairService(simclock.NewSim(t0), nil)
	if rs.BudgetRemaining() != 20 {
		t.Fatalf("budget = %d, want 20 (the paper's cap)", rs.BudgetRemaining())
	}
}

func TestFleetTelemetryWatchdog(t *testing.T) {
	clock := simclock.NewSim(t0)
	src := &fakeTelemetry{}
	wd := NewFleetTelemetryWatchdog(src, clock, 15*time.Minute, 0.25)
	if wd.Name != FleetTelemetryWatchdogName || wd.Device != FleetTelemetryDevice {
		t.Fatalf("identity: %+v", wd)
	}
	// Empty fleet: healthy.
	if err := wd.Check(); err != nil {
		t.Fatalf("empty fleet unhealthy: %v", err)
	}
	src.agents, src.stale = 100, 0.2
	if err := wd.Check(); err != nil {
		t.Fatalf("20%% stale under 25%% budget flagged: %v", err)
	}
	src.stale = 0.3
	if err := wd.Check(); err == nil {
		t.Fatal("30% stale over 25% budget passed")
	}
}

type fakeTelemetry struct {
	agents int
	stale  float64
}

func (f *fakeTelemetry) StaleFraction(time.Duration, time.Time) float64 { return f.stale }
func (f *fakeTelemetry) AgentCount() int                                { return f.agents }

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
