//go:build amd64 || arm64

package mbuf

// prefetchBurst hints, for each buffer of ms, the lines at offsets 0 and off.
// Implemented in prefetch_$GOARCH.s.
//
//go:noescape
func prefetchBurst(ms []*Mbuf, off uintptr)

// prefetchLines hints the line holding each address.
//
//go:noescape
func prefetchLines(addrs []uintptr)
