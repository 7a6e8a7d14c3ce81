package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (the "inclusive" method), 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage is the process's CPU time (user and system) and peak RSS.
type usage struct {
	user, sys time.Duration
	maxRSSMB  float64
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// threadCPU is the CPU time of the calling OS thread, in nanoseconds
// (CLOCK_THREAD_CPUTIME_ID). A simulation loop locked to its thread
// measures its own work with it, without the time a shared host steals
// from the virtual machine and without the garbage collector's background
// workers.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID, Linux
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// sub is the CPU spent between u0 and u.
func (u usage) sub(u0 usage) usage {
	return usage{user: u.user - u0.user, sys: u.sys - u0.sys, maxRSSMB: u.maxRSSMB}
}

// splitmix derives the k-th independent seed from a workload seed, so
// every scenario, placement and schedule is a pure function of --seed.
func splitmix(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}
