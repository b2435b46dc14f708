package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of vs (nearest rank on a sorted copy), or
// 0 for no samples.
func quantile(vs []time.Duration, q float64) time.Duration {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median averages the two middle values of an even count, so the median of
// a few epochs is not biased towards the slower one.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still allocated.
// Callers keep it outside timed sections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// splitmix derives the i-th sub-seed of seed.
func splitmix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// xorshift steps an xorshift64* generator: one word of state per agent.
func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x * 0x2545f4914f6cdd1d
}

// runtimeMetrics reports what the allocator and collector did since start,
// per million items.
func runtimeMetrics(m map[string]float64, start *runtime.MemStats, mitems float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m["runtime.alloc_mb_per_mitem"] = float64(end.TotalAlloc-start.TotalAlloc) / 1e6 / mitems
	m["runtime.gc_cycles"] = float64(end.NumGC - start.NumGC)
	m["runtime.gc_pause_ms"] = float64(end.PauseTotalNs-start.PauseTotalNs) / 1e6
}

// calibRef is what calibrate returns on the reference box when nothing else
// runs on it. It only fixes the unit: both sides of a comparison use it.
const calibRef = 9500 * time.Microsecond

var calibSink atomic.Uint64

// calibrate runs a fixed, cache-resident integer kernel on every worker at
// once and returns its wall time: how fast this machine's cores are right
// now. On a shared box that speed drifts by a tenth and more from minute to
// minute, and every timing drifts with it; callers take a sample next to
// each window or round, outside the timed sections.
func calibrate(workers int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var table [4096]uint64 // 32 KiB: stays in the first-level cache
			s := uint64(w + 1)
			for i := range table {
				table[i] = xorshift(&s)
			}
			x := s
			for i := 0; i < 3<<20; i++ {
				x = x*0x9e3779b97f4a7c15 + table[(x>>20)&4095]
				table[x&4095] ^= x
			}
			calibSink.Add(x)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// speedOf turns an epoch's calibration samples into its speed relative to
// the reference: 0.9 means this machine ran a tenth slower during the epoch.
func speedOf(samples []time.Duration) float64 {
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return float64(calibRef) * float64(len(samples)) / float64(sum)
}
