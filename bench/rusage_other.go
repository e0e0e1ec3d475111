//go:build !linux

package main

import "time"

// RUSAGE_THREAD is Linux-only, so retrieval CPU (process minus generator
// thread) cannot be separated here: the CPU and RSS metrics are reported
// as unavailable and only the latency, throughput and count metrics remain.
const rusageAvailable = false

func processCPU() time.Duration { return 0 }
func threadCPU() time.Duration  { return 0 }
func peakRSSMB() float64        { return 0 }
func kernelRelease() string     { return "unknown" }
