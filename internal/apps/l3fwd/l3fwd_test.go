package l3fwd

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"metronome/internal/apps"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/xrand"
)

func addr(a, b, c, d byte) packet.Addr { return packet.AddrFrom4(a, b, c, d) }

func TestLPMBasicLookup(t *testing.T) {
	l := NewLPM()
	if err := l.Add(addr(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(addr(10, 1, 0, 0), 16, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(addr(10, 1, 2, 0), 24, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(addr(10, 1, 2, 3), 32, 4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ip  packet.Addr
		hop uint16
		ok  bool
	}{
		{addr(10, 9, 9, 9), 1, true},  // /8
		{addr(10, 1, 9, 9), 2, true},  // /16 beats /8
		{addr(10, 1, 2, 9), 3, true},  // /24 beats /16
		{addr(10, 1, 2, 3), 4, true},  // /32 beats /24
		{addr(11, 0, 0, 1), 0, false}, // no route
		{addr(9, 255, 255, 255), 0, false},
	}
	for _, c := range cases {
		hop, ok := l.Lookup(c.ip)
		if ok != c.ok || (ok && hop != c.hop) {
			t.Errorf("Lookup(%v) = %d,%v want %d,%v", c.ip, hop, ok, c.hop, c.ok)
		}
	}
}

func TestLPMDefaultRoute(t *testing.T) {
	l := NewLPM()
	if err := l.Add(0, 0, 7); err != nil {
		t.Fatal(err)
	}
	for _, ip := range []packet.Addr{0, addr(1, 2, 3, 4), ^packet.Addr(0)} {
		if hop, ok := l.Lookup(ip); !ok || hop != 7 {
			t.Errorf("default route missed for %v", ip)
		}
	}
}

func TestLPMInsertionOrderIndependence(t *testing.T) {
	// Installing /8 after a /32 must not clobber the /32.
	l := NewLPM()
	if err := l.Add(addr(10, 1, 2, 3), 32, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(addr(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	if hop, ok := l.Lookup(addr(10, 1, 2, 3)); !ok || hop != 4 {
		t.Errorf("/32 lost after later /8 insert: %d", hop)
	}
	if hop, ok := l.Lookup(addr(10, 1, 2, 4)); !ok || hop != 1 {
		t.Errorf("/8 coverage broken: %d", hop)
	}
	// And the reverse case for a deep (>24) pair.
	l2 := NewLPM()
	l2.Add(addr(20, 0, 0, 128), 25, 9)
	l2.Add(addr(20, 0, 0, 0), 24, 8)
	if hop, _ := l2.Lookup(addr(20, 0, 0, 200)); hop != 9 {
		t.Errorf("/25 lost after later /24: %d", hop)
	}
	if hop, _ := l2.Lookup(addr(20, 0, 0, 5)); hop != 8 {
		t.Errorf("/24 half broken: %d", hop)
	}
}

// TestLPMNestedLevels nests a /25-/32 under a /17-/24 under a <= /16, so one
// lookup path crosses all three trie levels, and installs them deepest
// first and shallowest first: each address must resolve to its longest
// match either way.
func TestLPMNestedLevels(t *testing.T) {
	type route struct {
		p   packet.Addr
		len int
		hop uint16
	}
	routes := []route{
		{addr(10, 0, 0, 0), 12, 1},   // resolved at the root
		{addr(10, 1, 128, 0), 18, 2}, // second level
		{addr(10, 1, 130, 64), 27, 3},
		{addr(10, 1, 130, 77), 32, 4}, // third level, inside the /27
	}
	cases := []struct {
		ip  packet.Addr
		hop uint16
		ok  bool
	}{
		{addr(10, 15, 255, 255), 1, true},
		{addr(10, 16, 0, 0), 0, false},
		{addr(10, 1, 127, 255), 1, true}, // same /16 as the /18, outside it
		{addr(10, 1, 191, 255), 2, true},
		{addr(10, 1, 192, 0), 1, true},
		{addr(10, 1, 130, 63), 2, true}, // same /24 as the /27, outside it
		{addr(10, 1, 130, 64), 3, true},
		{addr(10, 1, 130, 95), 3, true},
		{addr(10, 1, 130, 96), 2, true},
		{addr(10, 1, 130, 77), 4, true},
		{addr(10, 1, 130, 78), 3, true},
	}
	for _, reversed := range []bool{false, true} {
		l := NewLPM()
		for i := range routes {
			r := routes[i]
			if reversed {
				r = routes[len(routes)-1-i]
			}
			if err := l.Add(r.p, r.len, r.hop); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cases {
			if hop, ok := l.Lookup(c.ip); ok != c.ok || hop != c.hop {
				t.Errorf("reversed=%v: Lookup(%v) = %d,%v want %d,%v", reversed, c.ip, hop, ok, c.hop, c.ok)
			}
		}
		if l.groups() != 2 {
			t.Errorf("reversed=%v: %d groups allocated, want 2 (one /16's, one /24's)", reversed, l.groups())
		}
	}
}

// TestLPMGroupExhaustion fills every group and checks that a rule that
// needs one more is refused whole (ErrNoTbl8, table untouched) while rules
// that fit existing groups still go in.
func TestLPMGroupExhaustion(t *testing.T) {
	l := NewLPM()
	if err := l.Add(0, 0, 9); err != nil {
		t.Fatal(err)
	}
	// One /24 per /16 takes one group each.
	for g := 0; g < maxGroups; g++ {
		if err := l.Add(packet.Addr(uint32(g)<<16), 24, 1); err != nil {
			t.Fatalf("/24 number %d: %v", g, err)
		}
	}
	if l.groups() != maxGroups {
		t.Fatalf("%d groups allocated, want %d", l.groups(), maxGroups)
	}
	before := slices.Clone(l.tbl)
	fresh16 := packet.Addr(uint32(maxGroups) << 16)
	for _, length := range []int{17, 24, 25, 32} {
		if err := l.Add(fresh16, length, 2); err != ErrNoTbl8 {
			t.Errorf("/%d in an unexpanded /16 with no group left: err = %v, want ErrNoTbl8", length, err)
		}
	}
	// A /32 inside an expanded /16 has its first group and lacks its second.
	if err := l.Add(addr(0, 5, 0, 1), 32, 2); err != ErrNoTbl8 {
		t.Errorf("/32 needing one more group: err = %v, want ErrNoTbl8", err)
	}
	if !slices.Equal(l.tbl, before) || l.groups() != maxGroups {
		t.Errorf("refused rules left a trace: %d groups", l.groups())
	}
	if hop, ok := l.Lookup(fresh16); !ok || hop != 9 {
		t.Errorf("refused rule changed a lookup: %d,%v", hop, ok)
	}
	// No new group needed: a second /24 in an expanded /16, and a short rule.
	if err := l.Add(addr(0, 5, 7, 0), 24, 3); err != nil {
		t.Errorf("/24 in an existing group: %v", err)
	}
	if err := l.Add(fresh16, 16, 4); err != nil {
		t.Errorf("/16 at the root: %v", err)
	}
}

// TestLPMSmallTableIsSmall pins the footprint the trie exists for: a table
// with two short routes — what the forwarding examples and the benchmark
// install — retains under 1 MiB of heap (DIR-24-8 took 48 MiB).
func TestLPMSmallTableIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := NewLPM()
	l.Add(0, 1, 0)
	l.Add(addr(128, 0, 0, 0), 2, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained >= 1<<20 {
		t.Errorf("NewLPM plus two short routes retains %d bytes, want < 1 MiB", retained)
	}
	if hop, ok := l.Lookup(addr(130, 0, 0, 1)); !ok || hop != 1 {
		t.Errorf("Lookup = %d,%v", hop, ok)
	}
}

func TestLPMValidation(t *testing.T) {
	l := NewLPM()
	if err := l.Add(0, 33, 1); err != ErrBadPrefix {
		t.Errorf("bad prefix: %v", err)
	}
	if err := l.Add(0, 8, 1<<14); err != ErrHopTooLarge {
		t.Errorf("hop too large: %v", err)
	}
}

func TestLPMAgainstLinearScan(t *testing.T) {
	// Property test: LPM lookups agree with a brute-force longest-match
	// over the rule list.
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		l := NewLPM()
		type rl struct {
			p   packet.Addr
			len int
			hop uint16
		}
		var rules []rl
		for i := 0; i < 30; i++ {
			length := r.Intn(33)
			p := packet.Addr(r.Uint64()) & mask(length)
			hop := uint16(r.Intn(100))
			if l.Add(p, length, hop) != nil {
				return false
			}
			// Later duplicates replace earlier ones in both models.
			filtered := rules[:0]
			for _, x := range rules {
				if !(x.p == p && x.len == length) {
					filtered = append(filtered, x)
				}
			}
			rules = append(filtered, rl{p, length, hop})
		}
		for trial := 0; trial < 200; trial++ {
			ip := packet.Addr(r.Uint64())
			var best *rl
			for i := range rules {
				x := &rules[i]
				if ip&mask(x.len) == x.p {
					if best == nil || x.len > best.len {
						best = x
					}
				}
			}
			hop, ok := l.Lookup(ip)
			if best == nil {
				if ok {
					return false
				}
			} else if !ok || hop != best.hop {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func buildFwd(t *testing.T) *Forwarder {
	t.Helper()
	f := New([]Port{
		{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 1}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 2}},
	})
	if err := f.Table.Add(addr(192, 168, 0, 0), 16, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Table.Add(addr(10, 0, 0, 0), 8, 1); err != nil {
		t.Fatal(err)
	}
	return f
}

func makePkt(t *testing.T, pool *mbuf.Pool, dst packet.Addr) *mbuf.Mbuf {
	t.Helper()
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	frame, err := packet.BuildUDP(buf, 64, addr(1, 2, 3, 4), dst, 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrame(frame)
	return m
}

func TestForwarderRoutesAndRewrites(t *testing.T) {
	f := buildFwd(t)
	pool := mbuf.NewPool(4)
	m := makePkt(t, pool, addr(10, 5, 5, 5))
	if v := f.Process(m); v != apps.Forward {
		t.Fatalf("verdict = %v", v)
	}
	if m.Meta != 1 {
		t.Errorf("out port = %d", m.Meta)
	}
	var p packet.Parsed
	if err := p.Parse(m.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.Eth.Src != f.Ports[1].MAC || p.Eth.Dst != f.Ports[1].GwMAC {
		t.Error("MACs not rewritten")
	}
	if p.IP.TTL != 63 {
		t.Errorf("TTL = %d", p.IP.TTL)
	}
	// The incremental checksum must still verify.
	if !packet.VerifyChecksum(m.Bytes()[packet.EthHeaderLen:]) {
		t.Error("checksum invalid after TTL decrement")
	}
	if f.Forwarded != 1 {
		t.Errorf("forwarded = %d", f.Forwarded)
	}
	m.Free()
}

func TestForwarderDropsNoRoute(t *testing.T) {
	f := buildFwd(t)
	pool := mbuf.NewPool(4)
	m := makePkt(t, pool, addr(172, 16, 0, 1))
	if v := f.Process(m); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	if f.NoRoute != 1 {
		t.Errorf("noroute = %d", f.NoRoute)
	}
	m.Free()
}

func TestForwarderDropsExpiredTTL(t *testing.T) {
	f := buildFwd(t)
	pool := mbuf.NewPool(4)
	m := makePkt(t, pool, addr(10, 0, 0, 1))
	m.Bytes()[packet.EthHeaderLen+8] = 1 // TTL=1
	if v := f.Process(m); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	if f.Expired != 1 {
		t.Errorf("expired = %d", f.Expired)
	}
	m.Free()
}

func TestForwarderDropsMalformed(t *testing.T) {
	f := buildFwd(t)
	pool := mbuf.NewPool(4)
	m, _ := pool.Get()
	m.SetFrame([]byte{1, 2, 3})
	if v := f.Process(m); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	if f.Malformed != 1 {
		t.Errorf("malformed = %d", f.Malformed)
	}
	m.Free()
}

func TestServiceRateCalibration(t *testing.T) {
	f := New(nil)
	mu := apps.ServiceRate(f, 2.1)
	// 70 cycles at 2.1 GHz = 30 Mpps: the µ used across the experiments.
	if mu < 29e6 || mu > 31e6 {
		t.Errorf("l3fwd service rate = %v", mu)
	}
}

func BenchmarkLPMLookup(b *testing.B) {
	l := NewLPM()
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		length := 8 + r.Intn(25)
		l.Add(packet.Addr(r.Uint64())&mask(length), length, uint16(r.Intn(256)))
	}
	ips := make([]packet.Addr, 1024)
	for i := range ips {
		ips[i] = packet.Addr(r.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lookup(ips[i&1023])
	}
}

func BenchmarkForwarderProcess(b *testing.B) {
	f := New([]Port{{}, {}})
	f.Table.Add(addr(10, 0, 0, 0), 8, 1)
	pool := mbuf.NewPool(2)
	m, _ := pool.Get()
	buf := make([]byte, 128)
	frame, _ := packet.BuildUDP(buf, 64, addr(1, 2, 3, 4), addr(10, 0, 0, 1), 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetFrame(frame)
		f.Process(m)
	}
}
