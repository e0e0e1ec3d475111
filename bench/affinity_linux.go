//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask (room for 1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) setAffinity(tid int) {
	// A thread that exited between the listing and this call fails with
	// ESRCH; nothing to pin then.
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
}

// setOthers applies mask to every thread of the process but the caller.
// Threads created later inherit it from their creator; the Go runtime has
// its template thread create threads on behalf of a LockOSThread'ed one, so
// none inherits the generator's mask.
func setOthers(mask *cpuMask) {
	self := syscall.Gettid()
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil && tid != self {
			mask.setAffinity(tid)
		}
	}
}

// pinGenerator gives the calling (LockOSThread'ed) generator thread the
// last CPU the process may use and confines every other thread to the
// rest; the returned function undoes both. With fewer than two CPUs it
// does nothing.
//
// Without it the kernel decides, and it decides differently from one
// quarter of an hour to the next: either the retrieval threads keep to the
// other vCPU, or they wake onto the generator's (always hot) one and preempt
// it. Measured on light_cbr, same binary: 5.5 % retrieval CPU and 12 us per
// wake in the first placement, 2.9 % and 6 us in the second, each stable
// for minutes. A generator that owns its core — the way a DPDK lcore does —
// is the design; pinning makes it the fact.
func pinGenerator() (undo func()) {
	var all, gen, rest cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(all), uintptr(unsafe.Pointer(&all))); e != 0 {
		return func() {}
	}
	last, n := -1, 0
	for c := 0; c < len(all)*64; c++ {
		if all[c/64]&(1<<(c%64)) != 0 {
			last = c
			n++
		}
	}
	if n < 2 {
		return func() {}
	}
	rest = all
	rest[last/64] &^= 1 << (last % 64)
	gen[last/64] = 1 << (last % 64)
	setOthers(&rest)
	gen.setAffinity(0)
	return func() {
		setOthers(&all)
		all.setAffinity(0)
	}
}
