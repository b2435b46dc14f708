package agent

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"pingmesh/internal/pinglist"
	"pingmesh/internal/simclock"
)

// dispatchDue pops every target due at the clock's now, as scheduleLoop
// does, and returns them.
func dispatchDue(a *Agent) (due []Target) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		t, _, ok := a.sched.Pop(a.clock.Now())
		if !ok {
			return due
		}
		due = append(due, t)
	}
}

// TestPinglistUpdateKeepsTheFloor: a target the new pinglist keeps keeps
// its next probe, so versions applied every 3s — each one re-listing the
// same peers, one with a longer interval — never get a pair probed twice
// within MinProbeInterval.
func TestPinglistUpdateKeepsTheFloor(t *testing.T) {
	clock := simclock.NewSim(epoch)
	a, err := New(testConfig(&fakeFetcher{}, &fakeProber{}, clock))
	if err != nil {
		t.Fatal(err)
	}
	last := map[Target]time.Time{}
	probes := 0
	for now, apply := epoch, epoch; now.Before(epoch.Add(300 * time.Second)); {
		if !now.Before(apply) {
			f := testFile(fmt.Sprintf("v%d", now.Unix()), 5)
			if now.Unix()%2 == 0 {
				f.Peers[4].IntervalSec = 30
			}
			if err := a.applyPinglist(f); err != nil {
				t.Fatal(err)
			}
			apply = apply.Add(3 * time.Second)
		}
		for _, tg := range dispatchDue(a) {
			if prev, ok := last[tg]; ok && now.Sub(prev) < pinglist.MinProbeInterval {
				t.Fatalf("%v probed at +%v and again at +%v", tg.Addr, prev.Sub(epoch), now.Sub(epoch))
			}
			last[tg] = now
			probes++
		}
		// On to the next dispatch or version, whichever comes first.
		a.mu.Lock()
		_, wait, _ := a.sched.Pop(now)
		a.mu.Unlock()
		if next := now.Add(wait); next.Before(apply) {
			clock.AdvanceTo(next)
		} else {
			clock.AdvanceTo(apply)
		}
		now = clock.Now()
	}
	// Four peers at 10s and one at 10s or 30s for 300s.
	if probes < 4*29 {
		t.Fatalf("%d probes in 300s", probes)
	}
}

// TestLateDispatchKeepsTheFloor: however late a dispatch, the target's next
// probe is no sooner than MinProbeInterval after it, and no later than one
// interval after it: on the grid, or on the floor.
func TestLateDispatchKeepsTheFloor(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, every := range []int{10, 30, 60} {
		f := testFile("v1", 1)
		f.Peers[0].IntervalSec = every
		s := new(Schedule)
		if err := s.Reset(agentAddr, f); err != nil {
			t.Fatal(err)
		}
		s.Start(epoch, new(Schedule))
		now := epoch
		for i := 0; i < 200; i++ {
			_, wait, due := s.Pop(now)
			if due {
				t.Fatalf("every %ds: due twice at %v", every, now)
			}
			// Dispatch up to two intervals late.
			now = now.Add(wait + time.Duration(rng.Int64N(int64(2*every)*int64(time.Second))))
			if _, _, due = s.Pop(now); !due {
				t.Fatalf("every %ds: not due at %v", every, now)
			}
			_, wait, _ = s.Pop(now)
			next := now.Add(wait)
			onGrid := s.At(0, next).Equal(next)
			if _, every := s.Peer(0); wait < pinglist.MinProbeInterval || wait > every || !onGrid && wait != pinglist.MinProbeInterval {
				t.Fatalf("every %ds: dispatched at %v, next at +%v", every, now, wait)
			}
		}
	}
}

// BenchmarkScheduleDispatch is one scheduleLoop dispatch: pop the earliest
// due peer and re-arm it, under the agent's lock.
func BenchmarkScheduleDispatch(b *testing.B) {
	for _, n := range []int{50, 500, 5000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			clock := simclock.NewSim(epoch)
			a, _ := New(testConfig(&fakeFetcher{}, &fakeProber{}, clock))
			f := &pinglist.File{Server: "srv1", Version: "v1"}
			for i := 0; i < n; i++ {
				f.Peers = append(f.Peers, pinglist.Peer{Addr: fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&255, i&255),
					Port: 8765, Class: "intra-pod", Proto: "tcp", QoS: "high", IntervalSec: 10})
			}
			if err := a.applyPinglist(f); err != nil {
				b.Fatal(err)
			}
			now := epoch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.mu.Lock()
				_, wait, due := a.sched.Pop(now)
				if !due {
					now = now.Add(wait)
					a.sched.Pop(now)
				}
				a.mu.Unlock()
			}
		})
	}
}
