package apps_test

import (
	"bytes"
	"testing"

	"metronome/internal/apps"
	"metronome/internal/apps/flowatcher"
	"metronome/internal/apps/ipsecgw"
	"metronome/internal/apps/l3fwd"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

const burstLen = 32

// stream builds a deterministic adversarial frame mix: routable UDP flows,
// TTL edges (0/1/2), malformed runts, wrong ethertypes, and truncations.
func stream(seed uint64, n int) [][]byte {
	gen := traffic.NewFrameGen(seed, 64, 64)
	rng := xrand.New(seed + 1)
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		f, _ := gen.Next()
		frame := append([]byte(nil), f...)
		switch rng.Intn(10) {
		case 0: // TTL edge: 0, 1 or 2
			frame[packet.EthHeaderLen+8] = byte(rng.Intn(3))
		case 1: // runt
			frame = frame[:rng.Intn(len(frame))]
		case 2: // wrong ethertype
			frame[12] = 0x86
			frame[13] = 0xDD
		case 3: // IPv6 version nibble
			frame[packet.EthHeaderLen] = 0x60
		}
		if len(frame) == 0 {
			frame = []byte{0}
		}
		frames = append(frames, frame)
	}
	return frames
}

// runPerPacket drives p over the stream one Process call at a time and
// returns the verdicts, post-processing frame bytes and (key, meta) pairs.
func runPerPacket(t *testing.T, p apps.Processor, frames [][]byte) ([]apps.Verdict, [][]byte, []packet.FlowKey, []uint64) {
	t.Helper()
	pool := mbuf.NewPool(2)
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	verdicts := make([]apps.Verdict, len(frames))
	out := make([][]byte, len(frames))
	keys := make([]packet.FlowKey, len(frames))
	metas := make([]uint64, len(frames))
	for i, f := range frames {
		m.SetFrame(f)
		m.Key, m.Meta = packet.FlowKey{}, 0
		verdicts[i] = p.Process(m)
		out[i] = append([]byte(nil), m.Bytes()...)
		keys[i], metas[i] = m.Key, m.Meta
	}
	return verdicts, out, keys, metas
}

// runBurst drives p over the stream ProcessBurst-wise (bursts of burstLen,
// final partial burst included) and returns the same observables.
func runBurst(t *testing.T, p apps.BurstProcessor, frames [][]byte) ([]apps.Verdict, [][]byte, []packet.FlowKey, []uint64) {
	t.Helper()
	return runBurstOf(t, p, frames, burstLen)
}

// runBurstOf is runBurst with the burst length chosen by the caller.
func runBurstOf(t *testing.T, p apps.BurstProcessor, frames [][]byte, size int) ([]apps.Verdict, [][]byte, []packet.FlowKey, []uint64) {
	t.Helper()
	pool := mbuf.NewPool(size + 1)
	bufs := make([]*mbuf.Mbuf, size)
	for i := range bufs {
		m, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = m
	}
	verdicts := make([]apps.Verdict, len(frames))
	out := make([][]byte, len(frames))
	keys := make([]packet.FlowKey, len(frames))
	metas := make([]uint64, len(frames))
	vbuf := make([]apps.Verdict, size)
	for at := 0; at < len(frames); at += size {
		n := size
		if at+n > len(frames) {
			n = len(frames) - at
		}
		for j := 0; j < n; j++ {
			bufs[j].SetFrame(frames[at+j])
			bufs[j].Key, bufs[j].Meta = packet.FlowKey{}, 0
		}
		p.ProcessBurst(bufs[:n], vbuf[:n])
		for j := 0; j < n; j++ {
			verdicts[at+j] = vbuf[j]
			out[at+j] = append([]byte(nil), bufs[j].Bytes()...)
			keys[at+j], metas[at+j] = bufs[j].Key, bufs[j].Meta
		}
	}
	for _, m := range bufs {
		m.Free()
	}
	return verdicts, out, keys, metas
}

// compare asserts the two paths produced byte-identical observables.
func compare(t *testing.T, frames [][]byte,
	vA []apps.Verdict, fA [][]byte, kA []packet.FlowKey, mA []uint64,
	vB []apps.Verdict, fB [][]byte, kB []packet.FlowKey, mB []uint64) {
	t.Helper()
	for i := range frames {
		if vA[i] != vB[i] {
			t.Fatalf("packet %d: verdict %v (per-packet) vs %v (burst)", i, vA[i], vB[i])
		}
		if !bytes.Equal(fA[i], fB[i]) {
			t.Fatalf("packet %d: frames diverge after processing", i)
		}
		if kA[i] != kB[i] || mA[i] != mB[i] {
			t.Fatalf("packet %d: key/meta diverge: %v/%d vs %v/%d", i, kA[i], mA[i], kB[i], mB[i])
		}
	}
}

func newL3fwd() *l3fwd.Forwarder {
	f := l3fwd.New([]l3fwd.Port{
		{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 1}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 2}},
	})
	// A default route plus a /8 split keeps both Forward and NoRoute paths
	// exercised (FrameGen draws fully random destinations).
	if err := f.Table.Add(0, 1, 0); err != nil { // 0.0.0.0/1 -> port 0
		panic(err)
	}
	if err := f.Table.Add(packet.AddrFrom4(192, 0, 0, 0), 8, 1); err != nil {
		panic(err)
	}
	return f
}

func TestL3fwdBurstEquivalence(t *testing.T) {
	frames := stream(100, 4000)
	ref := newL3fwd()
	nat := newL3fwd()
	vA, fA, kA, mA := runPerPacket(t, ref, frames)
	vB, fB, kB, mB := runBurst(t, nat, frames)
	compare(t, frames, vA, fA, kA, mA, vB, fB, kB, mB)
	if ref.Forwarded != nat.Forwarded || ref.NoRoute != nat.NoRoute ||
		ref.Malformed != nat.Malformed || ref.Expired != nat.Expired {
		t.Fatalf("counters diverge: %+v vs %+v", *ref, *nat)
	}
	if ref.Forwarded == 0 || ref.Malformed == 0 || ref.Expired == 0 {
		t.Fatalf("stream did not exercise all paths: %+v", *ref)
	}
}

func newGateway() *ipsecgw.Gateway {
	g := ipsecgw.New(7)
	sa := &ipsecgw.SA{
		SPI:       0x2002,
		EncKey:    [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		AuthKey:   [20]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9},
		TunnelSrc: packet.AddrFrom4(192, 0, 2, 1),
		TunnelDst: packet.AddrFrom4(198, 51, 100, 1),
	}
	if err := g.AddSA(sa, 0, 0); err != nil { // match-all outbound policy
		panic(err)
	}
	return g
}

func TestIpsecgwBurstEquivalence(t *testing.T) {
	// Both instances consume their IV RNG in stream order, so identical
	// inputs must yield identical ESP bytes.
	frames := stream(200, 2000)
	ref := newGateway()
	nat := newGateway()
	vA, fA, kA, mA := runPerPacket(t, ref, frames)
	vB, fB, kB, mB := runBurst(t, nat, frames)
	compare(t, frames, vA, fA, kA, mA, vB, fB, kB, mB)
	if ref.Encapsulated != nat.Encapsulated || ref.PolicyMisses != nat.PolicyMisses {
		t.Fatalf("counters diverge: enc %d/%d miss %d/%d",
			ref.Encapsulated, nat.Encapsulated, ref.PolicyMisses, nat.PolicyMisses)
	}
	if ref.Encapsulated == 0 {
		t.Fatal("stream never hit the encap path")
	}
}

// TestFlowatcherBurstEquivalence pins the staged burst path against the
// per-packet one. The burst lengths straddle ProcessBurst's 64-packet chunk
// (one packet, a chunk less one, exactly one, one more, several), and 4 in 10
// frames of the stream are malformed, so chunk seams and the second pass's
// deferred Malformed count are both on the compared path: the clock below
// reads Malformed, so counting a malformed frame any earlier or later than
// its place in arrival order would shift FirstSeen/LastSeen and Interarrival.
func TestFlowatcherBurstEquivalence(t *testing.T) {
	frames := stream(300, 4000)
	clocked := func() *flowatcher.Monitor {
		m := flowatcher.New()
		m.Clock = func() float64 { return float64(m.Packets + 1000*m.Malformed) }
		return m
	}
	ref := clocked()
	vA, fA, kA, mA := runPerPacket(t, ref, frames)
	if ref.Packets == 0 || ref.Malformed == 0 {
		t.Fatalf("stream did not exercise both paths: %d/%d", ref.Packets, ref.Malformed)
	}
	for _, n := range []int{burstLen, 1, 63, 64, 65, 200} {
		nat := clocked()
		vB, fB, kB, mB := runBurstOf(t, nat, frames, n)
		compare(t, frames, vA, fA, kA, mA, vB, fB, kB, mB)
		if ref.Packets != nat.Packets || ref.Malformed != nat.Malformed {
			t.Fatalf("bursts of %d: counters diverge: pkts %d/%d malformed %d/%d",
				n, ref.Packets, nat.Packets, ref.Malformed, nat.Malformed)
		}
		if ref.FlowCount() != nat.FlowCount() {
			t.Fatalf("bursts of %d: flow counts diverge: %d vs %d", n, ref.FlowCount(), nat.FlowCount())
		}
		if ref.Sizes != nat.Sizes || ref.Interarrival != nat.Interarrival {
			t.Fatalf("bursts of %d: packet-level statistics diverge", n)
		}
		mismatched := 0
		ref.Range(func(k packet.FlowKey, fs *flowatcher.FlowStats) bool {
			other, ok := nat.Flow(k)
			// Both sketches count exactly what their table does or more,
			// each under its own seed.
			if !ok || *other != *fs || int64(nat.Sketch.Estimate(k)) < fs.Packets {
				mismatched++
				return false
			}
			return true
		})
		if mismatched != 0 {
			t.Fatalf("bursts of %d: per-flow stats diverge between the paths", n)
		}
		a, b := ref.TopK(10), nat.TopK(10)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("bursts of %d: TopK diverges at rank %d: %v vs %v", n, i, a[i], b[i])
			}
		}
	}
}

// The PerPacket shim must agree with the native burst path too — it is the
// baseline the BENCH_apps gates compare against.
func TestPerPacketShimEquivalence(t *testing.T) {
	frames := stream(400, 2000)
	ref := newL3fwd()
	nat := newL3fwd()
	vA, fA, kA, mA := runBurst(t, apps.PerPacket{P: ref}, frames)
	vB, fB, kB, mB := runBurst(t, nat, frames)
	compare(t, frames, vA, fA, kA, mA, vB, fB, kB, mB)
}

// Sharded flowatcher: per-queue shards fed by an RSS split must, after the
// read-time merge, agree exactly with one monitor that saw every packet.
func TestShardedMergeMatchesSingleMonitor(t *testing.T) {
	const queues = 4
	gen := traffic.NewFrameGen(55, 256, 64)
	rss := packet.NewToeplitz(packet.DefaultRSSKey)
	single := flowatcher.New()
	sharded := flowatcher.NewSharded(queues)
	pool := mbuf.NewPool(2)
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	vbuf := make([]apps.Verdict, 1)
	for i := 0; i < 20000; i++ {
		frame, k := gen.Next()
		m.SetFrame(frame)
		single.Process(m)
		q := rss.QueueFor(k, queues)
		sharded.Shard(q).ProcessBurst([]*mbuf.Mbuf{m}, vbuf)
	}
	if got, want := sharded.Packets(), single.Packets; got != want {
		t.Fatalf("merged packets = %d, want %d", got, want)
	}
	if got, want := sharded.FlowCount(), single.FlowCount(); got != want {
		t.Fatalf("merged flow count = %d, want %d", got, want)
	}
	single.Range(func(k packet.FlowKey, fs *flowatcher.FlowStats) bool {
		merged, ok := sharded.Flow(k)
		if !ok {
			t.Fatalf("flow %v missing after merge", k)
		}
		if merged.Packets != fs.Packets || merged.Bytes != fs.Bytes ||
			merged.MinSize != fs.MinSize || merged.MaxSize != fs.MaxSize {
			t.Fatalf("flow %v merged stats %+v != %+v", k, merged, *fs)
		}
		if uint64(sharded.Estimate(k)) < uint64(fs.Packets) {
			t.Fatalf("summed sketch undercounts flow %v", k)
		}
		return true
	})
	// Merged TopK must equal the single monitor's TopK (same exact counts,
	// same deterministic tie-break).
	a, b := single.TopK(10), sharded.TopK(10)
	if len(a) != len(b) {
		t.Fatalf("topk lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("topk[%d]: %v vs %v", i, a[i], b[i])
		}
	}
}

// A flow deliberately written to several shards (no RSS partitioning) must
// still merge exactly: sums, envelopes and dedup'd counts.
func TestShardedCrossShardFlowMerge(t *testing.T) {
	sharded := flowatcher.NewSharded(3)
	pool := mbuf.NewPool(2)
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	k := packet.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}
	buf := make([]byte, 2048)
	vbuf := make([]apps.Verdict, 1)
	sizes := map[int][]int{0: {64, 128}, 1: {256}, 2: {96, 512, 80}}
	total, bytes := 0, 0
	for q, ss := range sizes {
		for _, size := range ss {
			f, _ := packet.BuildUDP(buf, size, k.Src, k.Dst, k.SrcPort, k.DstPort)
			m.SetFrame(f)
			sharded.Shard(q).ProcessBurst([]*mbuf.Mbuf{m}, vbuf)
			total++
			bytes += size
		}
	}
	if got := sharded.FlowCount(); got != 1 {
		t.Fatalf("flow count = %d, want 1 (cross-shard dedup)", got)
	}
	fs, ok := sharded.Flow(k)
	if !ok {
		t.Fatal("flow missing")
	}
	if fs.Packets != int64(total) || fs.Bytes != int64(bytes) {
		t.Fatalf("merged pkts/bytes = %d/%d, want %d/%d", fs.Packets, fs.Bytes, total, bytes)
	}
	if fs.MinSize != 64 || fs.MaxSize != 512 {
		t.Fatalf("merged size envelope = [%d..%d], want [64..512]", fs.MinSize, fs.MaxSize)
	}
	if top := sharded.TopK(5); len(top) != 1 || top[0] != k {
		t.Fatalf("merged topk = %v", top)
	}
}

// Sharding contract under the race detector: one goroutine per shard, no
// locks, exactly how runtime.NewProc drives per-queue processors.
func TestShardedConcurrentWritersRace(t *testing.T) {
	const queues = 4
	sharded := flowatcher.NewSharded(queues)
	done := make(chan int64, queues)
	for q := 0; q < queues; q++ {
		go func(q int) {
			gen := traffic.NewFrameGen(uint64(900+q), 64, 64)
			pool := mbuf.NewPool(2)
			m, _ := pool.Get()
			vbuf := make([]apps.Verdict, 1)
			bufs := []*mbuf.Mbuf{m}
			for i := 0; i < 5000; i++ {
				frame, _ := gen.Next()
				m.SetFrame(frame)
				sharded.Shard(q).ProcessBurst(bufs, vbuf)
			}
			m.Free()
			done <- sharded.Shard(q).Packets
		}(q)
	}
	var want int64
	for q := 0; q < queues; q++ {
		want += <-done
	}
	// Writers are quiescent: the read-time merge is exact now.
	if got := sharded.Packets(); got != want {
		t.Fatalf("merged packets = %d, want %d", got, want)
	}
	var sum int64
	for q := 0; q < queues; q++ {
		sharded.Shard(q).Range(func(_ packet.FlowKey, fs *flowatcher.FlowStats) bool {
			sum += fs.Packets
			return true
		})
	}
	if sum != want {
		t.Fatalf("per-flow sum = %d, want %d", sum, want)
	}
}

// The acceptance bar: a monitor must hold >= 1M concurrent flows with exact
// counters that survive the sharded merge.
func TestMillionFlowsExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-flow table build is a long test")
	}
	const flows = 1 << 20 // 1,048,576
	const shards = 4
	sharded := flowatcher.NewSharded(shards)
	pool := mbuf.NewPool(2)
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	buf := make([]byte, 2048)
	vbuf := make([]apps.Verdict, 1)
	bufs := []*mbuf.Mbuf{m}
	// Dense key grid: flow i gets 1 + i%3 packets, shard i%shards — and
	// every 64k-th flow is also written to a second shard to exercise the
	// cross-shard merge at scale.
	for i := 0; i < flows; i++ {
		k := packet.FlowKey{
			Src:     packet.Addr(i),
			Dst:     packet.Addr(^uint32(0) - uint32(i)),
			SrcPort: uint16(i),
			DstPort: uint16(i >> 16),
			Proto:   packet.ProtoUDP,
		}
		f, err := packet.BuildUDP(buf, 64, k.Src, k.Dst, k.SrcPort, k.DstPort)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFrame(f)
		for rep := 0; rep <= i%3; rep++ {
			sharded.Shard(i%shards).ProcessBurst(bufs, vbuf)
		}
		if i%65536 == 0 {
			sharded.Shard((i+1)%shards).ProcessBurst(bufs, vbuf)
		}
	}
	if got := sharded.FlowCount(); got != flows {
		t.Fatalf("flow count = %d, want %d", got, flows)
	}
	// Exactness survives the merge: spot-check a deterministic sample of
	// flows across the whole range, including the cross-shard ones.
	for i := 0; i < flows; i += 4099 { // prime stride: hits all shards
		k := packet.FlowKey{
			Src:     packet.Addr(i),
			Dst:     packet.Addr(^uint32(0) - uint32(i)),
			SrcPort: uint16(i),
			DstPort: uint16(i >> 16),
			Proto:   packet.ProtoUDP,
		}
		want := int64(1 + i%3)
		if i%65536 == 0 {
			want++
		}
		fs, ok := sharded.Flow(k)
		if !ok {
			t.Fatalf("flow %d missing", i)
		}
		if fs.Packets != want {
			t.Fatalf("flow %d packets = %d, want %d", i, fs.Packets, want)
		}
	}
	wantPkts := int64(0)
	for i := 0; i < flows; i++ {
		wantPkts += int64(1 + i%3)
	}
	wantPkts += int64((flows + 65535) / 65536)
	if got := sharded.Packets(); got != wantPkts {
		t.Fatalf("total packets = %d, want %d", got, wantPkts)
	}
}

// The ServiceRate contract both dispatch paths share: a burst processor's
// calibrated cycle cost is per packet, independent of the path.
func TestServiceRateSharedAcrossPaths(t *testing.T) {
	for _, p := range []apps.Processor{newL3fwd(), newGateway(), flowatcher.New()} {
		direct := apps.ServiceRate(p, 2.1)
		shimmed := apps.ServiceRate(apps.PerPacket{P: p}, 2.1)
		if direct != shimmed {
			t.Errorf("%s: shim changed the calibrated rate: %v vs %v", p.Name(), direct, shimmed)
		}
	}
}
