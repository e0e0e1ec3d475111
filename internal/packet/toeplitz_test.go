package packet

import (
	"encoding/binary"
	"math"
	"testing"

	"metronome/internal/xrand"
)

// The Microsoft RSS specification publishes verification vectors for the
// default key; DPDK's own thash tests use the same set. Tuple order is
// (src addr, dst addr, src port, dst port).
var rssVectors = []struct {
	srcIP      Addr
	dstIP      Addr
	srcPort    uint16
	dstPort    uint16
	want4Tuple uint32
	want2Tuple uint32
}{
	{AddrFrom4(66, 9, 149, 187), AddrFrom4(161, 142, 100, 80), 2794, 1766, 0x51ccc178, 0x323e8fc2},
	{AddrFrom4(199, 92, 111, 2), AddrFrom4(65, 69, 140, 83), 14230, 4739, 0xc626b0ea, 0xd718262a},
	{AddrFrom4(24, 19, 198, 95), AddrFrom4(12, 22, 207, 184), 12898, 38024, 0x5c2b394a, 0xd2d0a5de},
	{AddrFrom4(38, 27, 205, 30), AddrFrom4(209, 142, 163, 6), 48228, 2217, 0xafc7327f, 0x82989176},
	{AddrFrom4(153, 39, 163, 191), AddrFrom4(202, 188, 127, 2), 44251, 1303, 0x10e828a2, 0x5d1809c5},
}

func TestToeplitzSpecVectors(t *testing.T) {
	h := NewToeplitz(DefaultRSSKey)
	for i, v := range rssVectors {
		k := FlowKey{Src: v.srcIP, Dst: v.dstIP, SrcPort: v.srcPort, DstPort: v.dstPort, Proto: ProtoTCP}
		if got := h.HashFlow(k); got != v.want4Tuple {
			t.Errorf("vector %d 4-tuple: got %08x, want %08x", i, got, v.want4Tuple)
		}
		if got := h.HashAddrs(k); got != v.want2Tuple {
			t.Errorf("vector %d 2-tuple: got %08x, want %08x", i, got, v.want2Tuple)
		}
	}
}

func TestToeplitzZeroInput(t *testing.T) {
	h := NewToeplitz(DefaultRSSKey)
	if got := h.HashFlow(FlowKey{}); got != 0 {
		t.Fatalf("all-zero tuple hashed to %08x, want 0", got)
	}
}

// randKey draws a flow key with every tuple field random.
func randKey(r *xrand.Rand) FlowKey {
	return FlowKey{Src: Addr(r.Uint64()), Dst: Addr(r.Uint64()), SrcPort: uint16(r.Uint64()), DstPort: uint16(r.Uint64()), Proto: ProtoTCP}
}

func TestToeplitzLinearity(t *testing.T) {
	// Toeplitz over GF(2) is linear: H(a xor b) == H(a) xor H(b).
	h := NewToeplitz(DefaultRSSKey)
	r := xrand.New(9)
	for trial := 0; trial < 50; trial++ {
		a, b := randKey(r), randKey(r)
		x := FlowKey{Src: a.Src ^ b.Src, Dst: a.Dst ^ b.Dst, SrcPort: a.SrcPort ^ b.SrcPort, DstPort: a.DstPort ^ b.DstPort}
		if h.HashFlow(x) != h.HashFlow(a)^h.HashFlow(b) {
			t.Fatalf("linearity violated on trial %d", trial)
		}
	}
}

// hashSlow is the per-bit reference walk of the RSS specification, kept as
// the oracle the table path is equivalence-tested against.
func (t *Toeplitz) hashSlow(input []byte) uint32 {
	var result uint32
	for i, b := range input {
		for bit := 0; bit < 8; bit++ {
			if b&(0x80>>uint(bit)) != 0 {
				result ^= t.window(i*8 + bit)
			}
		}
	}
	return result
}

// tuple renders k's RSS input: src addr, dst addr, src port, dst port, all
// big-endian.
func tuple(k FlowKey) []byte {
	in := make([]byte, 12)
	binary.BigEndian.PutUint32(in[0:4], uint32(k.Src))
	binary.BigEndian.PutUint32(in[4:8], uint32(k.Dst))
	binary.BigEndian.PutUint16(in[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(in[10:12], k.DstPort)
	return in
}

func TestToeplitzTableMatchesBitWalk(t *testing.T) {
	// The lookup tables must agree bit-for-bit with the per-bit reference
	// walk of the RSS spec over random keys and tuples, for both the 4-tuple
	// and the 2-tuple.
	r := xrand.New(17)
	for trial := 0; trial < 20; trial++ {
		var key [40]byte
		for i := range key {
			key[i] = byte(r.Intn(256))
		}
		h := NewToeplitz(key)
		for i := 0; i < 50; i++ {
			k := randKey(r)
			in := tuple(k)
			if got, want := h.HashFlow(k), h.hashSlow(in); got != want {
				t.Fatalf("trial %d: HashFlow(%v) = %08x, bit walk %08x", trial, k, got, want)
			}
			if got, want := h.HashAddrs(k), h.hashSlow(in[:8]); got != want {
				t.Fatalf("trial %d: HashAddrs(%v) = %08x, bit walk %08x", trial, k, got, want)
			}
		}
	}
}

func FuzzToeplitzQueueFor(f *testing.F) {
	// The word-indexed HashFlow/HashAddrs and the masked QueueFor must equal
	// the per-bit walk over the big-endian tuple, for any key and queue count.
	for i, v := range rssVectors {
		proto := uint8(ProtoTCP)
		if i%2 == 1 {
			proto = ProtoESP // QueueFor's 2-tuple path
		}
		f.Add(uint32(v.srcIP), uint32(v.dstIP), v.srcPort, v.dstPort, proto, uint8(3*i+1)) // n = 2, 5, 8, 11, 14
	}
	h := NewToeplitz(DefaultRSSKey)
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, proto, nb uint8) {
		k := FlowKey{Src: Addr(src), Dst: Addr(dst), SrcPort: sport, DstPort: dport, Proto: proto}
		n := int(nb)%64 + 1
		in := tuple(k)
		flow, addrs := h.hashSlow(in), h.hashSlow(in[:8])
		if got := h.HashFlow(k); got != flow {
			t.Fatalf("HashFlow(%v) = %08x, bit walk %08x", k, got, flow)
		}
		if got := h.HashAddrs(k); got != addrs {
			t.Fatalf("HashAddrs(%v) = %08x, bit walk %08x", k, got, addrs)
		}
		want := addrs
		if proto == ProtoTCP || proto == ProtoUDP {
			want = flow
		}
		if got := h.QueueFor(k, n); got != int(want%uint32(n)) {
			t.Fatalf("QueueFor(%v, %d) = %d, want %d", k, n, got, want%uint32(n))
		}
	})
}

func TestQueueForSpread(t *testing.T) {
	// Random flows must spread roughly evenly over queues — RSS would be
	// useless otherwise, and the multiqueue experiments depend on it.
	h := NewToeplitz(DefaultRSSKey)
	r := xrand.New(4)
	const queues = 4
	const flows = 40000
	var counts [queues]int
	for i := 0; i < flows; i++ {
		k := FlowKey{
			Src:     Addr(r.Uint64()),
			Dst:     Addr(r.Uint64()),
			SrcPort: uint16(r.Intn(1 << 16)),
			DstPort: uint16(r.Intn(1 << 16)),
			Proto:   ProtoUDP,
		}
		counts[h.QueueFor(k, queues)]++
	}
	want := float64(flows) / queues
	for q, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("queue %d: %d flows, want ~%.0f", q, c, want)
		}
	}
}

func TestQueueForSingleQueue(t *testing.T) {
	h := NewToeplitz(DefaultRSSKey)
	if h.QueueFor(FlowKey{Src: 1, Dst: 2}, 1) != 0 {
		t.Fatal("single queue must always map to 0")
	}
}

func TestQueueForStable(t *testing.T) {
	// A flow always lands on the same queue: per-flow ordering depends on it.
	h := NewToeplitz(DefaultRSSKey)
	k := FlowKey{Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 0, 2), SrcPort: 7, DstPort: 8, Proto: ProtoUDP}
	q := h.QueueFor(k, 3)
	for i := 0; i < 100; i++ {
		if h.QueueFor(k, 3) != q {
			t.Fatal("queue mapping is unstable")
		}
	}
}

func BenchmarkToeplitzHashFlow(b *testing.B) {
	h := NewToeplitz(DefaultRSSKey)
	k := FlowKey{Src: AddrFrom4(66, 9, 149, 187), Dst: AddrFrom4(161, 142, 100, 80), SrcPort: 2794, DstPort: 1766}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.HashFlow(k)
	}
}

func BenchmarkQueueFor(b *testing.B) {
	h := NewToeplitz(DefaultRSSKey)
	k := FlowKey{Src: AddrFrom4(66, 9, 149, 187), Dst: AddrFrom4(161, 142, 100, 80), SrcPort: 2794, DstPort: 1766, Proto: ProtoUDP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.QueueFor(k, 2)
	}
}

func BenchmarkNewToeplitz(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewToeplitz(DefaultRSSKey)
	}
}
