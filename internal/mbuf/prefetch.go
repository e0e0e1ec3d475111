package mbuf

import "unsafe"

// cacheLine is the granule a prefetch hint moves: 64 B on every amd64 part
// and the common arm64 ones (a 128 B-line arm64 core just gets both hints of
// a pair in one line).
const cacheLine = 64

// frameLineOff is an offset into an Mbuf that lies in the cache line holding
// the head of the frame — backing's first bytes: the Ethernet, IPv4 and L4
// headers of any frame — as offset 0 lies in the line holding Data, Len and
// RxStampNs. It is backing's own offset rounded down to a line, which names
// the right line both for a 64 B-aligned buffer (go 1.21's allocator:
// backing[0:56] follows in that line) and for one 8 B past a boundary (go
// 1.22 and later put a type header ahead of large pointerful objects:
// backing[0:48]). TestPrefetchCoversLayout checks both claims on the
// addresses a pool really holds, so a field added later, or an allocator that
// places buffers differently, fails a test instead of silently moving the
// first touch off the prefetched lines.
const frameLineOff = unsafe.Offsetof(Mbuf{}.backing) &^ (cacheLine - 1)

// PrefetchBurst asks the CPU to start loading, for every buffer of the
// burst, the two cache lines the Rx path touches first: the header line
// (Data, Len, RxStampNs) and the frame-head line (the packet's Ethernet, IPv4
// and L4 headers). A consumer calls it on a burst another core has just
// written — right after the ring poll, before the first field read — so the
// cross-core line transfers of the whole burst overlap instead of being taken
// one dependent miss at a time, which is what rte_prefetch0 a few packets
// ahead buys a DPDK receive loop.
//
// It is one assembly loop per burst (PREFETCHT0 on amd64, PRFM PLDL1KEEP on
// arm64) and a no-op on every other architecture. A prefetch is only a hint:
// it never faults (nil entries included), reads or writes nothing the program
// can observe, and so changes no behaviour.
func PrefetchBurst(ms []*Mbuf) { prefetchBurst(ms, frameLineOff) }

// PrefetchLines issues the same hint for the cache line holding each address
// of addrs — for a burst consumer that can compute, a pass ahead, which table
// slots and counters its packets will touch. The addresses are plain numbers:
// they keep nothing alive, are never dereferenced, and a stale or zero one is
// harmless.
func PrefetchLines(addrs []uintptr) { prefetchLines(addrs) }
