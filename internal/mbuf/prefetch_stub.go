//go:build !amd64 && !arm64

package mbuf

// No prefetch instruction is wired for this architecture: the hints are
// no-ops, which is also what they are allowed to be anywhere else.

func prefetchBurst(ms []*Mbuf, off uintptr) {}

func prefetchLines(addrs []uintptr) {}
