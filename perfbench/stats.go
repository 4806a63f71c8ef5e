package main

import (
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lowerQuartile returns the 25th percentile of xs, interpolated linearly
// between the two nearest ranks.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := 0.25 * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// p99 returns the 99th percentile (nearest rank) of xs.
func p99(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)*99+99)/100-1])
}

// ratio is a/b, or 0 when b is 0: a layer a workload does not exercise
// reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// memEvery is the sampling interval of memPeak.
const memEvery = 2 * time.Millisecond

// memPeak samples, until stopped, the memory the Go runtime holds from the
// OS — everything it mapped less what it returned — and keeps the peak.
type memPeak struct {
	stop chan struct{}
	peak chan float64
}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), peak: make(chan float64)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		peak := uint64(0)
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stop:
				m.peak <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// mb stops the sampler and returns the peak in megabytes.
func (m *memPeak) mb() float64 {
	close(m.stop)
	return <-m.peak
}

// probeRefS is the median hostProbe time on a 2-vCPU VM. A time scaled by
// probeRefS over a run's median probe time is in seconds of that VM.
const probeRefS = 0.016

// probeState is the host probe's working set, built once so that the probe
// itself neither allocates nor collects.
var probeState struct {
	once  sync.Once
	rng   *rand.Rand
	keys  []int
	cycle []int32 // one random cycle over all indices, for the pointer chase
	m     map[int]int
}

var probeSink int

// hostProbe times fixed work that shares no code with the repository —
// random numbers, a sort, map updates and a pointer chase through 4 MB —
// and returns its wall seconds. Its median over a run measures how fast the
// host is running at the time.
func hostProbe() float64 {
	ps := &probeState
	ps.once.Do(func() {
		ps.rng = rand.New(rand.NewSource(1))
		ps.keys = make([]int, 1<<16)
		perm := ps.rng.Perm(1 << 20)
		ps.cycle = make([]int32, len(perm))
		for i, p := range perm {
			ps.cycle[p] = int32(perm[(i+1)%len(perm)])
		}
		ps.m = make(map[int]int, 1<<14)
	})
	start := time.Now()
	ps.rng.Seed(1)
	for i := range ps.keys {
		ps.keys[i] = ps.rng.Int()
	}
	sort.Ints(ps.keys)
	clear(ps.m)
	for i, k := range ps.keys {
		ps.m[k&(1<<14-1)] += i
	}
	at := int32(0)
	for i := 0; i < 1<<16; i++ {
		at = ps.cycle[at]
	}
	probeSink = len(ps.m) + int(at)
	return time.Since(start).Seconds()
}
