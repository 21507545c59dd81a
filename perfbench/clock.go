package main

import (
	"syscall"
	"time"
)

// Every timing is taken on two clocks: the wall clock a caller waits on,
// and the process's CPU clock, the user plus system time of all its
// threads. The CPU clock leaves out the time the hypervisor gives this
// machine's CPUs to other guests (steal) and the time spent waiting on the
// disk, the two widest noise sources on a shared VM, so the gated timings
// are read off it; the wall-clock figures are reported beside them.

// lap is one timed interval on both clocks.
type lap struct {
	wall, cpu time.Duration
}

func (l lap) plus(m lap) lap { return lap{wall: l.wall + m.wall, cpu: l.cpu + m.cpu} }

// stopwatch is a timing started on both clocks.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

// lap reads both clocks' time since the watch started.
func (s stopwatch) lap() lap {
	wall := time.Since(s.wall)
	return lap{wall: wall, cpu: processCPU() - s.cpu}
}

// processCPU is the user plus system CPU time of every thread of the
// process so far (0 where getrusage fails).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wallMs and cpuMs are the laps' times on one clock in milliseconds.
func wallMs(ls []lap) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = durMs(l.wall)
	}
	return out
}

func cpuMs(ls []lap) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = durMs(l.cpu)
	}
	return out
}
