package flowatcher

import (
	"math"
	"testing"

	"metronome/internal/apps"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/traffic"
	"metronome/internal/xrand"
)

func feed(t *testing.T, m *Monitor, gen *traffic.FrameGen, n int) {
	t.Helper()
	pool := mbuf.NewPool(2)
	buf, _ := pool.Get()
	defer buf.Free()
	for i := 0; i < n; i++ {
		frame, _ := gen.Next()
		buf.SetFrame(frame)
		if v := m.Process(buf); v != apps.Consume {
			t.Fatalf("verdict = %v", v)
		}
	}
}

func TestExactCountsMatchOffered(t *testing.T) {
	m := New()
	gen := traffic.NewFrameGen(1, 8, 64)
	feed(t, m, gen, 5000)
	if m.Packets != 5000 {
		t.Fatalf("packets = %d", m.Packets)
	}
	var total int64
	m.Range(func(_ packet.FlowKey, fs *FlowStats) bool {
		total += fs.Packets
		return true
	})
	if total != 5000 {
		t.Fatalf("per-flow sum = %d", total)
	}
	if m.FlowCount() != 8 {
		t.Fatalf("flows = %d, want 8", m.FlowCount())
	}
}

func TestFlowStatsFields(t *testing.T) {
	m := New()
	tick := 0.0
	m.Clock = func() float64 { tick += 0.001; return tick }
	pool := mbuf.NewPool(2)
	b, _ := pool.Get()
	defer b.Free()
	frameBuf := make([]byte, 2048)
	k := packet.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}
	for _, size := range []int{64, 128, 96} {
		f, _ := packet.BuildUDP(frameBuf, size, k.Src, k.Dst, k.SrcPort, k.DstPort)
		b.SetFrame(f)
		m.Process(b)
	}
	fs, ok := m.Flow(k)
	if !ok {
		t.Fatal("flow missing")
	}
	if fs.Packets != 3 || fs.Bytes != 64+128+96 {
		t.Errorf("pkts=%d bytes=%d", fs.Packets, fs.Bytes)
	}
	if fs.MinSize != 64 || fs.MaxSize != 128 {
		t.Errorf("min=%d max=%d", fs.MinSize, fs.MaxSize)
	}
	if !(fs.FirstSeen < fs.LastSeen) {
		t.Error("timestamps not ordered")
	}
	if m.Interarrival.N() != 2 {
		t.Errorf("interarrival samples = %d", m.Interarrival.N())
	}
}

func TestSketchNeverUndercounts(t *testing.T) {
	m := New()
	gen := traffic.NewFrameGen(2, 32, 64)
	feed(t, m, gen, 20000)
	m.Range(func(k packet.FlowKey, fs *FlowStats) bool {
		if est := m.Sketch.Estimate(k); int64(est) < fs.Packets {
			t.Fatalf("sketch undercounts %v: %d < %d", k, est, fs.Packets)
		}
		return true
	})
}

func TestSketchAccuracyAtScale(t *testing.T) {
	// With 4x16384 counters and 32 flows, estimates should be near-exact.
	m := New()
	gen := traffic.NewFrameGen(3, 32, 64)
	feed(t, m, gen, 20000)
	m.Range(func(k packet.FlowKey, fs *FlowStats) bool {
		est := int64(m.Sketch.Estimate(k))
		if est > fs.Packets+fs.Packets/10+5 {
			t.Fatalf("sketch grossly overcounts: %d vs %d", est, fs.Packets)
		}
		return true
	})
}

// The never-undercount contract at the flow count bursty_2q runs, where
// rows are shared (4096 flows over 16384 counters per row), for one monitor
// and for the summed estimate of a sharded one.
func TestSketchNeverUndercountsAt4096Flows(t *testing.T) {
	single, sharded := New(), NewSharded(2)
	gen := traffic.NewFrameGen(7, 4096, 64)
	pool := mbuf.NewPool(2)
	buf, _ := pool.Get()
	defer buf.Free()
	for i := 0; i < 100000; i++ {
		frame, _ := gen.Next()
		buf.SetFrame(frame)
		single.Process(buf)
		sharded.Shard(i & 1).Process(buf)
	}
	if single.FlowCount() != 4096 || sharded.FlowCount() != 4096 {
		t.Fatalf("flows = %d / %d, want 4096", single.FlowCount(), sharded.FlowCount())
	}
	single.Range(func(k packet.FlowKey, fs *FlowStats) bool {
		if est := single.Sketch.Estimate(k); int64(est) < fs.Packets {
			t.Fatalf("sketch undercounts %v: %d < %d", k, est, fs.Packets)
		}
		if est := sharded.Estimate(k); int64(est) < fs.Packets {
			t.Fatalf("summed sketch undercounts %v: %d < %d", k, est, fs.Packets)
		}
		return true
	})
}

// Counters stop at MaxUint32: a flow past 2^32 packets reads "at least
// 2^32 - 1" for ever instead of wrapping to a small number, and so does the
// cross-shard sum.
func TestSketchCountersSaturate(t *testing.T) {
	k := packet.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: packet.ProtoUDP}
	cm := NewCountMin(4, 64)
	h := cm.seed.hash(k)
	for i := 0; i < cm.depth; i++ {
		*cm.counter(i, h) = math.MaxUint32 - 1
	}
	for add := 1; add <= 3; add++ {
		cm.Add(k)
		if est := cm.Estimate(k); est != math.MaxUint32 {
			t.Fatalf("after %d adds from MaxUint32-1: estimate %d, want MaxUint32", add, est)
		}
	}

	s := NewSharded(2)
	h = s.seed.hash(k)
	for q := 0; q < 2; q++ {
		sk := s.Shard(q).Sketch
		for i := 0; i < sk.depth; i++ {
			*sk.counter(i, h) = math.MaxUint32/2 + 10
		}
	}
	if est := s.Estimate(k); est != math.MaxUint32 {
		t.Fatalf("summed estimate wrapped to %d, want MaxUint32", est)
	}
}

// A sketch asked for no rows or no columns gets one of each: the first
// packet must not divide by zero or index an empty row, and Estimate must
// not answer MaxUint32 for a key it has never seen.
func TestNewCountMinClampsGeometry(t *testing.T) {
	k := packet.FlowKey{Src: 9, Dst: 8, SrcPort: 7, DstPort: 6, Proto: packet.ProtoTCP}
	for _, c := range []struct{ depth, width, wantDepth, wantWidth int }{
		{4, 16384, 4, 16384},
		{1, 1, 1, 1},
		{0, 0, 1, 1},
		{0, 8, 1, 8},
		{3, 0, 3, 1},
		{-2, -5, 1, 1},
	} {
		cm := NewCountMin(c.depth, c.width)
		if cm.depth != c.wantDepth || cm.width != c.wantWidth {
			t.Errorf("NewCountMin(%d, %d) = %dx%d, want %dx%d",
				c.depth, c.width, cm.depth, cm.width, c.wantDepth, c.wantWidth)
		}
		if est := cm.Estimate(k); est != 0 {
			t.Errorf("NewCountMin(%d, %d): empty sketch estimates %d", c.depth, c.width, est)
		}
		for i := 0; i < 5; i++ {
			cm.Add(k)
		}
		if est := cm.Estimate(k); est != 5 {
			t.Errorf("NewCountMin(%d, %d): estimate %d after 5 adds", c.depth, c.width, est)
		}
	}
}

func TestTopKOrdering(t *testing.T) {
	m := New()
	pool := mbuf.NewPool(2)
	b, _ := pool.Get()
	defer b.Free()
	frameBuf := make([]byte, 2048)
	counts := map[int]int{0: 50, 1: 30, 2: 10}
	for flow, n := range counts {
		for i := 0; i < n; i++ {
			f, _ := packet.BuildUDP(frameBuf, 64, packet.Addr(flow+1), 9, uint16(flow+100), 200)
			b.SetFrame(f)
			m.Process(b)
		}
	}
	top := m.TopK(2)
	if len(top) != 2 {
		t.Fatalf("topk len = %d", len(top))
	}
	fs0, _ := m.Flow(top[0])
	fs1, _ := m.Flow(top[1])
	if fs0.Packets != 50 || fs1.Packets != 30 {
		t.Errorf("topk order wrong: %d, %d", fs0.Packets, fs1.Packets)
	}
	if got := m.TopK(10); len(got) != 3 {
		t.Errorf("topk clamping: %d", len(got))
	}
	if got := m.TopK(0); len(got) != 0 {
		t.Errorf("topk(0): %d", len(got))
	}
}

// Equal counts must order by ascending key — the deterministic tie-break
// the rendering paths rely on — and repeated calls must agree (the
// selection buffer is reused across calls).
func TestTopKTieBreakAndReuse(t *testing.T) {
	m := New()
	pool := mbuf.NewPool(2)
	b, _ := pool.Get()
	defer b.Free()
	frameBuf := make([]byte, 2048)
	for _, src := range []int{5, 3, 9, 1} {
		f, _ := packet.BuildUDP(frameBuf, 64, packet.Addr(src), 7, 100, 200)
		b.SetFrame(f)
		m.Process(b)
	}
	first := m.TopK(3)
	for i := 1; i < len(first); i++ {
		if !first[i-1].Less(first[i]) {
			t.Fatalf("tie-break not ascending at %d: %v then %v", i, first[i-1], first[i])
		}
	}
	if first[0].Src != 1 || first[1].Src != 3 || first[2].Src != 5 {
		t.Fatalf("unexpected tie order: %v", first)
	}
	again := m.TopK(3)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("TopK not stable across calls at %d", i)
		}
	}
}

func TestUnbalancedMixStatistics(t *testing.T) {
	// The Table III workload: 30% one flow, 70% spread. The monitor must
	// see the heavy hitter on top with ~30% of packets.
	m := New()
	r := xrand.New(4)
	gen := traffic.NewFrameGen(5, 64, 64)
	pool := mbuf.NewPool(2)
	b, _ := pool.Get()
	defer b.Free()
	heavy := packet.FlowKey{Src: 9, Dst: 10, SrcPort: 11, DstPort: 12, Proto: packet.ProtoUDP}
	frameBuf := make([]byte, 2048)
	const n = 30000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.30) {
			f, _ := packet.BuildUDP(frameBuf, 64, heavy.Src, heavy.Dst, heavy.SrcPort, heavy.DstPort)
			b.SetFrame(f)
		} else {
			f, _ := gen.Next()
			b.SetFrame(f)
		}
		m.Process(b)
	}
	top := m.TopK(1)
	if top[0] != heavy {
		t.Fatal("heavy hitter not identified")
	}
	fs, _ := m.Flow(heavy)
	share := float64(fs.Packets) / float64(n)
	if share < 0.28 || share > 0.32 {
		t.Errorf("heavy share = %v, want ~0.30", share)
	}
}

func TestMalformedCounted(t *testing.T) {
	m := New()
	pool := mbuf.NewPool(2)
	b, _ := pool.Get()
	defer b.Free()
	b.SetFrame([]byte{1, 2, 3, 4})
	if v := m.Process(b); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	if m.Malformed != 1 || m.Packets != 0 {
		t.Errorf("malformed=%d packets=%d", m.Malformed, m.Packets)
	}
}

// TestStagedBurstSameSeedBitIdentical feeds one stream to two monitors that
// share a hash seed — one packet at a time, and in bursts longer than a
// stage chunk while the index grows under the hints — and compares what the
// cross-seed equivalence test in internal/apps cannot: the sketch rows and
// the index, word for word.
func TestStagedBurstSameSeedBitIdentical(t *testing.T) {
	s := newSeed()
	ref, nat := newMonitor(s), newMonitor(s)
	gen := traffic.NewFrameGen(7, 3000, 64) // grows the index past minIndex twice
	const burst = 200
	pool := mbuf.NewPool(burst + 1)
	bufs := make([]*mbuf.Mbuf, burst)
	for i := range bufs {
		bufs[i], _ = pool.Get()
	}
	verdicts := make([]apps.Verdict, burst)
	for round := 0; round < 40; round++ {
		for i, b := range bufs {
			f, _ := gen.Next()
			if i%7 == 3 {
				f = f[:i%14] // a runt: malformed on both paths
			}
			b.SetFrame(f)
			ref.Process(b)
		}
		nat.ProcessBurst(bufs, verdicts)
	}
	if ref.Packets != nat.Packets || ref.Malformed != nat.Malformed || ref.Malformed == 0 {
		t.Fatalf("counters: pkts %d/%d malformed %d/%d", ref.Packets, nat.Packets, ref.Malformed, nat.Malformed)
	}
	if len(ref.table.idx) <= minIndex || len(ref.table.idx) != len(nat.table.idx) {
		t.Fatalf("index sizes %d/%d (fresh %d)", len(ref.table.idx), len(nat.table.idx), minIndex)
	}
	for i, e := range ref.table.idx {
		if nat.table.idx[i] != e {
			t.Fatalf("index slot %d: %v vs %v", i, e, nat.table.idx[i])
		}
	}
	for i, c := range ref.Sketch.rows {
		if nat.Sketch.rows[i] != c {
			t.Fatalf("sketch counter %d: %d vs %d", i, c, nat.Sketch.rows[i])
		}
	}
}

func TestServiceRateCalibration(t *testing.T) {
	mu := apps.ServiceRate(New(), 2.1)
	if mu < 27e6 || mu > 29e6 {
		t.Errorf("flowatcher service rate = %v, want ~28 Mpps", mu)
	}
}

// The arena must hand back stable, distinct slots across block boundaries
// and across index growth: only the index is ever rebuilt.
func TestFlowTableArenaStability(t *testing.T) {
	tab := newFlowTable(newSeed())
	const flows = 3*blockLen + 17
	ptrs := make([]*FlowStats, flows)
	grown, size := 0, len(tab.idx)
	for i := 0; i < flows; i++ {
		k := packet.FlowKey{Src: packet.Addr(i), Proto: packet.ProtoUDP}
		fs, isNew := tab.get(k, tab.seed.hash(k))
		if !isNew {
			t.Fatalf("flow %d reported as existing", i)
		}
		fs.Packets = int64(i)
		ptrs[i] = fs
		if len(tab.idx) != size {
			grown, size = grown+1, len(tab.idx)
		}
		if 2*tab.Len() > len(tab.idx) {
			t.Fatalf("index over half full: %d flows in %d slots", tab.Len(), len(tab.idx))
		}
	}
	if grown < 3 {
		t.Fatalf("index doubled %d times, want >= 3", grown)
	}
	if tab.Len() != flows {
		t.Fatalf("len = %d, want %d", tab.Len(), flows)
	}
	for i := 0; i < flows; i++ {
		k := packet.FlowKey{Src: packet.Addr(i), Proto: packet.ProtoUDP}
		fs, ok := tab.Flow(k)
		if !ok {
			t.Fatalf("flow %d missing", i)
		}
		if fs != ptrs[i] {
			t.Fatalf("flow %d slot moved", i)
		}
		if fs.Packets != int64(i) {
			t.Fatalf("flow %d data lost: %d", i, fs.Packets)
		}
	}
}

func BenchmarkProcess(b *testing.B) {
	m := New()
	gen := traffic.NewFrameGen(6, 1024, 64)
	pool := mbuf.NewPool(2)
	mb, _ := pool.Get()
	frames := make([][]byte, 1024)
	for i := range frames {
		f, _ := gen.Next()
		frames[i] = append([]byte(nil), f...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.SetFrame(frames[i&1023])
		m.Process(mb)
	}
}
