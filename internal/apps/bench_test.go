package apps_test

import (
	"encoding/binary"
	"testing"

	"metronome/internal/apps"
	"metronome/internal/apps/flowatcher"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

// benchBurst returns 32 routable 64-byte UDP frames (copied out of the
// generator's reuse buffer) plus the mbufs and verdict buffer the benchmarks
// cycle through — the steady-state working set of one Runner drain.
func benchBurst(b *testing.B) ([][]byte, []*mbuf.Mbuf, []apps.Verdict) {
	b.Helper()
	gen := traffic.NewFrameGen(1, burstLen, 64)
	frames := make([][]byte, burstLen)
	for i := range frames {
		f, _ := gen.Next()
		frames[i] = append([]byte(nil), f...)
	}
	pool := mbuf.NewPool(burstLen + 1)
	ms := make([]*mbuf.Mbuf, burstLen)
	for i := range ms {
		m, err := pool.Get()
		if err != nil {
			b.Fatal(err)
		}
		m.SetFrame(frames[i])
		ms[i] = m
	}
	return frames, ms, make([]apps.Verdict, burstLen)
}

// l3fwd decrements TTL in place, so each iteration restores the TTL byte
// (one store per packet, identical for both dispatch paths).
func restoreTTL(ms []*mbuf.Mbuf) {
	for _, m := range ms {
		m.Bytes()[packet.EthHeaderLen+8] = 64
	}
}

func benchL3fwd(b *testing.B, p apps.BurstProcessor) {
	_, ms, verdicts := benchBurst(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreTTL(ms)
		p.ProcessBurst(ms, verdicts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burstLen/b.Elapsed().Seconds()/1e6, "Mpps")
}

func BenchmarkL3fwdBurst32(b *testing.B)     { benchL3fwd(b, newL3fwd()) }
func BenchmarkL3fwdPerPacket32(b *testing.B) { benchL3fwd(b, apps.PerPacket{P: newL3fwd()}) }

// BenchmarkL3fwdBurst32RandomDst is the cold-table companion of
// BenchmarkL3fwdBurst32, whose 32 fixed destinations keep whatever the LPM
// touches in L1: here every op rewrites the 32 frames' destinations (one
// 4-byte store per packet, next to the TTL restore) from 8192 uniform
// random addresses, so lookups walk the table the way FrameGen traffic over
// thousands of flows does and the table's footprint — cache and TLB reach —
// is part of the number.
func BenchmarkL3fwdBurst32RandomDst(b *testing.B) {
	const nDst = 8192
	p := newL3fwd()
	_, ms, verdicts := benchBurst(b)
	rng := xrand.New(7)
	dsts := make([]uint32, nDst)
	for i := range dsts {
		dsts[i] = uint32(rng.Uint64())
	}
	const dstOff = packet.EthHeaderLen + 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * burstLen % nDst
		for j, m := range ms {
			frame := m.Bytes()
			frame[packet.EthHeaderLen+8] = 64
			binary.BigEndian.PutUint32(frame[dstOff:], dsts[at+j])
		}
		p.ProcessBurst(ms, verdicts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burstLen/b.Elapsed().Seconds()/1e6, "Mpps")
}

func benchFlowatcher(b *testing.B, p apps.BurstProcessor) {
	_, ms, verdicts := benchBurst(b)
	p.ProcessBurst(ms, verdicts) // prime the flow table: steady state, no inserts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProcessBurst(ms, verdicts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burstLen/b.Elapsed().Seconds()/1e6, "Mpps")
}

func BenchmarkFlowatcherBurst32(b *testing.B) { benchFlowatcher(b, flowatcher.New()) }
func BenchmarkFlowatcherPerPacket32(b *testing.B) {
	benchFlowatcher(b, apps.PerPacket{P: flowatcher.New()})
}

// BenchmarkFlowatcherStream4096 is the companion of BenchmarkFlowatcherBurst32
// that can see the flow table: Burst32 cycles 32 fixed flows whose index
// entries, keys, stats and sketch counters never leave L1, so it measures
// hashing and bookkeeping only. Here 8192 mbufs carry a random draw over
// 4096 flows (bursty_2q's flow count) and each op processes the next 32 of
// them, so the table, the sketch rows and the frames themselves are walked
// out of L2 the way a live queue walks them. The first pass over all 8192
// primes the table: steady state, no inserts, 0 allocs/op.
func BenchmarkFlowatcherStream4096(b *testing.B) {
	const nFlows, nBufs = 4096, 8192
	gen := traffic.NewFrameGen(11, nFlows, 64)
	pool := mbuf.NewPool(nBufs + 1)
	ms := make([]*mbuf.Mbuf, nBufs)
	for i := range ms {
		m, err := pool.Get()
		if err != nil {
			b.Fatal(err)
		}
		f, _ := gen.Next()
		m.SetFrame(f)
		ms[i] = m
	}
	p := flowatcher.New()
	verdicts := make([]apps.Verdict, burstLen)
	for at := 0; at < nBufs; at += burstLen {
		p.ProcessBurst(ms[at:at+burstLen], verdicts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * burstLen % nBufs
		p.ProcessBurst(ms[at:at+burstLen], verdicts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burstLen/b.Elapsed().Seconds()/1e6, "Mpps")
}

// ipsecgw rewrites the frame into an ESP tunnel packet, so each iteration
// re-seats the original plaintext frames (same copy cost on both paths).
func benchIpsecgw(b *testing.B, p apps.BurstProcessor) {
	frames, ms, verdicts := benchBurst(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, m := range ms {
			m.SetFrame(frames[j])
		}
		p.ProcessBurst(ms, verdicts)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burstLen/b.Elapsed().Seconds()/1e6, "Mpps")
}

func BenchmarkIpsecgwBurst32(b *testing.B)     { benchIpsecgw(b, newGateway()) }
func BenchmarkIpsecgwPerPacket32(b *testing.B) { benchIpsecgw(b, apps.PerPacket{P: newGateway()}) }
