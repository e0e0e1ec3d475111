//go:build linux

package main

import (
	"os"
	"strings"
	"syscall"
	"time"
)

// rusageAvailable reports whether processCPU, threadCPU and peakRSSMB
// measure anything on this platform; where they do not, the CPU and RSS
// metrics are left out.
const rusageAvailable = true

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage fails only on a bad `who` or pointer; both are constants here.
	_ = syscall.Getrusage(who, &ru)
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the user+system CPU time of the whole process so far.
func processCPU() time.Duration { return cpuOf(rusage(syscall.RUSAGE_SELF)) }

// threadCPU is the CPU time of the calling OS thread; the caller must hold
// runtime.LockOSThread for the number to mean anything.
func threadCPU() time.Duration { return cpuOf(rusage(syscall.RUSAGE_THREAD)) }

// peakRSSMB is the process's resident-set high-water mark. It never
// falls, so with several workloads in one process it reads the largest so
// far; the driver runs one workload per process.
func peakRSSMB() float64 { return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024 }

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
