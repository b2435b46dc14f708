package analysis

import (
	"fmt"
	"time"
)

// Thresholds define when an SLA scope is declared to have a network
// problem. The paper's production values: drop rate above 10⁻³ or P99
// latency above 5ms — both far beyond normal — fire an alert (§4.3).
type Thresholds struct {
	MaxDropRate float64
	MaxP99      time.Duration
}

// MinProbes is the probe floor below which a scope is not judged: too few
// probes to estimate a rate (a single 3s RTT among ten probes is not a 10%
// drop rate).
const MinProbes = 100

// DefaultThresholds returns the paper's production thresholds.
func DefaultThresholds() Thresholds {
	return Thresholds{MaxDropRate: 1e-3, MaxP99: 5 * time.Millisecond}
}

// Alert is one SLA violation.
type Alert struct {
	Scope    string
	At       time.Time
	DropRate float64
	P99      time.Duration
	Reason   string
}

// String renders the alert for logs and reports.
func (a *Alert) String() string {
	return fmt.Sprintf("[%s] %s: %s (drop=%.2g p99=%v)",
		a.At.UTC().Format(time.RFC3339), a.Scope, a.Reason, a.DropRate, a.P99)
}

// The three answers of §4.3's "is it the network?": the SLA rule's verdict
// on a scope, and the diagnosis chain's on a server pair.
const (
	VerdictNetwork      = "network"
	VerdictNotNetwork   = "not-network"
	VerdictInconclusive = "inconclusive"
)

// Judge is the SLA rule, the one place a scope's numbers meet the
// thresholds: fewer than MinProbes successful probes is inconclusive; else
// a drop rate above MaxDropRate, then a P99 above MaxP99, is the network,
// and anything else is not. reason names the deciding test and its numbers.
func (th Thresholds) Judge(successes uint64, dropRate float64, p99 time.Duration) (verdict, reason string) {
	switch {
	case successes < MinProbes:
		return VerdictInconclusive, fmt.Sprintf("%d successful probes, below the %d-probe floor", successes, MinProbes)
	case th.MaxDropRate > 0 && dropRate > th.MaxDropRate:
		return VerdictNetwork, fmt.Sprintf("packet drop rate %.2g exceeds %.2g", dropRate, th.MaxDropRate)
	case th.MaxP99 > 0 && p99 > th.MaxP99:
		return VerdictNetwork, fmt.Sprintf("P99 latency %v exceeds %v", p99, th.MaxP99)
	}
	return VerdictNotNetwork, "within SLA"
}

// Check judges one scope's stats, returning the alert its network verdict
// stands for, or nil.
func Check(scope string, st *LatencyStats, th Thresholds, at time.Time) *Alert {
	drop, p99 := st.DropRate(), st.Percentile(0.99)
	verdict, reason := th.Judge(st.Success(), drop, p99)
	if verdict != VerdictNetwork {
		return nil
	}
	return &Alert{Scope: scope, At: at, DropRate: drop, P99: p99, Reason: reason}
}
