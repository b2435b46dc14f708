// Package autopilot reimplements the slice of Microsoft's Autopilot data
// center management stack (§2.3) that Pingmesh is built into: a Device
// Manager holding device health state, a Watchdog Service that monitors
// components and reports failures, a Repair Service that executes repair
// actions under a rate budget (the ≤20 switch reloads per day of §5.1), and
// the two watchdogs that watch Pingmesh itself: pipeline staleness and silent
// telemetry agents. Autopilot's Deployment Service has no counterpart here:
// binaries are started by hand or by tests. The Perfcounter Aggregator —
// the five-minute reporting path that complements Cosmos/SCOPE (§3.5) — is
// internal/telemetry.
package autopilot

import (
	"fmt"
	"sync"
	"time"

	"pingmesh/internal/simclock"
	"pingmesh/internal/trace"
)

// DeviceState is the Device Manager's view of one device.
type DeviceState int

// Device states, in escalation order.
const (
	Healthy DeviceState = iota
	Probation
	Failed
)

// String names the state.
func (s DeviceState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Probation:
		return "probation"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DeviceManager tracks device health. Unknown devices are Healthy.
type DeviceManager struct {
	mu      sync.Mutex
	states  map[string]DeviceState
	history map[string]int // consecutive failure reports
}

// NewDeviceManager returns an empty Device Manager.
func NewDeviceManager() *DeviceManager {
	return &DeviceManager{states: map[string]DeviceState{}, history: map[string]int{}}
}

// State returns the device's current state.
func (dm *DeviceManager) State(device string) DeviceState {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	return dm.states[device]
}

// ReportFailure escalates a device: the first report moves it to
// Probation, the second consecutive one to Failed.
func (dm *DeviceManager) ReportFailure(device string) DeviceState {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	dm.history[device]++
	if dm.history[device] >= 2 {
		dm.states[device] = Failed
	} else {
		dm.states[device] = Probation
	}
	return dm.states[device]
}

// ReportHealthy clears a device back to Healthy.
func (dm *DeviceManager) ReportHealthy(device string) {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	dm.states[device] = Healthy
	dm.history[device] = 0
}

// Devices returns every device in a non-Healthy state.
func (dm *DeviceManager) Devices() map[string]DeviceState {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	out := make(map[string]DeviceState)
	for d, s := range dm.states {
		if s != Healthy {
			out[d] = s
		}
	}
	return out
}

// Watchdog is one health check (§3.5: every Pingmesh component has
// watchdogs — are pinglists generated, is resource usage within budget, is
// data reported in time).
type Watchdog struct {
	// Name of the check.
	Name string
	// Device the check covers, reported to the Device Manager on failure.
	Device string
	// Check returns nil when healthy.
	Check func() error
}

// StalenessWatchdogName is the "who watches Pingmesh" alert: it fires when
// the measurement pipeline's own data goes stale (§3.5 freshness budget).
const StalenessWatchdogName = "pingmesh-stale"

// StalenessDevice is the Device Manager device the staleness watchdog
// escalates.
const StalenessDevice = "pingmesh-pipeline"

// NewStalenessWatchdog returns the watchdog that monitors Pingmesh itself:
// it checks the tracer's freshness marks against the §3.5 budget (5-minute
// perfcounter path, 20-minute Cosmos/SCOPE path) and fails when any stage
// that has run before is now over budget. A pipeline that has not booted
// yet ("waiting") is healthy — watchdogs run from process start.
func NewStalenessWatchdog(f *trace.Freshness) Watchdog {
	return Watchdog{
		Name:   StalenessWatchdogName,
		Device: StalenessDevice,
		Check:  func() error { return f.Check().Err() },
	}
}

// FleetTelemetryWatchdogName is the fleet-level "who watches Pingmesh"
// alert: it fires when too large a fraction of agents has stopped shipping
// telemetry — a fleet-wide outage signal that pages before any single
// component's staleness budget would.
const FleetTelemetryWatchdogName = "pingmesh-fleet-stale"

// FleetTelemetryDevice is the Device Manager device the fleet watchdog
// escalates.
const FleetTelemetryDevice = "pingmesh-fleet"

// TelemetrySource is the slice of the telemetry collector the fleet
// watchdog reads (satisfied by *telemetry.Collector).
type TelemetrySource interface {
	// StaleFraction returns the fraction of known agents whose last
	// accepted report is older than staleAfter.
	StaleFraction(staleAfter time.Duration, now time.Time) float64
	// AgentCount returns how many agents have ever reported.
	AgentCount() int
}

// NewFleetTelemetryWatchdog returns a watchdog that fails when more than
// maxStale of the fleet's agents (by fraction, e.g. 0.1) have not reported
// within staleAfter. An empty fleet is healthy — the watchdog runs from
// collector start, before any agent has had a chance to report.
func NewFleetTelemetryWatchdog(src TelemetrySource, clock simclock.Clock, staleAfter time.Duration, maxStale float64) Watchdog {
	if clock == nil {
		clock = simclock.NewReal()
	}
	if staleAfter <= 0 {
		staleAfter = 15 * time.Minute // three missed 5-minute reports
	}
	if maxStale <= 0 {
		maxStale = 0.1
	}
	return Watchdog{
		Name:   FleetTelemetryWatchdogName,
		Device: FleetTelemetryDevice,
		Check: func() error {
			if src.AgentCount() == 0 {
				return nil
			}
			if f := src.StaleFraction(staleAfter, clock.Now()); f > maxStale {
				return fmt.Errorf("%.1f%% of %d agents stale for >%v (budget %.1f%%)",
					f*100, src.AgentCount(), staleAfter, maxStale*100)
			}
			return nil
		},
	}
}

// WatchdogService runs registered watchdogs periodically.
type WatchdogService struct {
	clock    simclock.Clock
	interval time.Duration
	dm       *DeviceManager

	mu        sync.Mutex
	watchdogs []Watchdog
	lastErr   map[string]error
	stop      chan struct{}
	stopOnce  sync.Once
}

// NewWatchdogService creates a service reporting into dm. A zero interval
// defaults to 1 minute.
func NewWatchdogService(clock simclock.Clock, interval time.Duration, dm *DeviceManager) *WatchdogService {
	if clock == nil {
		clock = simclock.NewReal()
	}
	if interval <= 0 {
		interval = time.Minute
	}
	return &WatchdogService{
		clock:    clock,
		interval: interval,
		dm:       dm,
		lastErr:  map[string]error{},
		stop:     make(chan struct{}),
	}
}

// Register adds a watchdog.
func (ws *WatchdogService) Register(w Watchdog) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.watchdogs = append(ws.watchdogs, w)
}

// RunOnce evaluates every watchdog immediately.
func (ws *WatchdogService) RunOnce() {
	ws.mu.Lock()
	dogs := append([]Watchdog(nil), ws.watchdogs...)
	ws.mu.Unlock()
	for _, w := range dogs {
		err := w.Check()
		ws.mu.Lock()
		ws.lastErr[w.Name] = err
		ws.mu.Unlock()
		if ws.dm != nil && w.Device != "" {
			if err != nil {
				ws.dm.ReportFailure(w.Device)
			} else {
				ws.dm.ReportHealthy(w.Device)
			}
		}
	}
}

// Start runs the watchdogs on the service interval until Stop.
func (ws *WatchdogService) Start() {
	go func() {
		ticker := ws.clock.NewTicker(ws.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ws.stop:
				return
			case <-ticker.C:
				ws.RunOnce()
			}
		}
	}()
}

// Stop halts periodic runs.
func (ws *WatchdogService) Stop() { ws.stopOnce.Do(func() { close(ws.stop) }) }

// Status returns the last error per watchdog name (nil means healthy).
func (ws *WatchdogService) Status() map[string]error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make(map[string]error, len(ws.lastErr))
	for k, v := range ws.lastErr {
		out[k] = v
	}
	return out
}
