package ipsecgw

import (
	"bytes"
	"testing"

	"metronome/internal/apps"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
)

func newGW(t testing.TB) (*Gateway, *SA) {
	t.Helper()
	g := New(42)
	sa := &SA{
		SPI:       0x1001,
		EncKey:    [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		AuthKey:   [20]byte{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39},
		TunnelSrc: packet.AddrFrom4(192, 0, 2, 1),
		TunnelDst: packet.AddrFrom4(198, 51, 100, 1),
	}
	if err := g.AddSA(sa, packet.AddrFrom4(10, 0, 0, 0), 8); err != nil {
		t.Fatal(err)
	}
	return g, sa
}

func mkPacket(t testing.TB, pool *mbuf.Pool, dst packet.Addr) *mbuf.Mbuf {
	t.Helper()
	m, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	frame, err := packet.BuildUDP(buf, 64, packet.AddrFrom4(172, 16, 0, 1), dst, 4500, 4501)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFrame(frame)
	return m
}

func TestEncapDecapRoundTrip(t *testing.T) {
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	m := mkPacket(t, pool, packet.AddrFrom4(10, 1, 1, 1))
	original := append([]byte(nil), m.Bytes()...)

	if v := g.Process(m); v != apps.Forward {
		t.Fatalf("encap verdict = %v", v)
	}
	// Outer header is ESP between the tunnel endpoints.
	var outer packet.Parsed
	if err := outer.Parse(m.Bytes()); err != nil {
		t.Fatal(err)
	}
	if outer.IP.Protocol != packet.ProtoESP {
		t.Fatalf("outer proto = %d", outer.IP.Protocol)
	}
	if outer.IP.Src != packet.AddrFrom4(192, 0, 2, 1) || outer.IP.Dst != packet.AddrFrom4(198, 51, 100, 1) {
		t.Error("tunnel endpoints wrong")
	}
	// Ciphertext must not contain the plaintext inner header.
	if bytes.Contains(m.Bytes(), original[packet.EthHeaderLen:packet.EthHeaderLen+20]) {
		t.Error("inner header leaked in clear")
	}

	if v := g.Process(m); v != apps.Forward {
		t.Fatalf("decap verdict = %v", v)
	}
	if !bytes.Equal(m.Bytes(), original) {
		t.Error("decapsulated packet differs from original")
	}
	if g.Encapsulated != 1 || g.Decapsulated != 1 {
		t.Errorf("counters: %d/%d", g.Encapsulated, g.Decapsulated)
	}
	m.Free()
}

func TestEncapPolicyMiss(t *testing.T) {
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	m := mkPacket(t, pool, packet.AddrFrom4(11, 1, 1, 1)) // outside 10/8
	if v := g.Process(m); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	if g.PolicyMisses != 1 {
		t.Errorf("policy misses = %d", g.PolicyMisses)
	}
	m.Free()
}

func TestDecapRejectsTamperedICV(t *testing.T) {
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	m := mkPacket(t, pool, packet.AddrFrom4(10, 1, 1, 1))
	g.Process(m) // encap
	b := m.Bytes()
	b[len(b)-1] ^= 0xff // corrupt ICV
	if v := g.Process(m); v != apps.Drop {
		t.Fatalf("tampered packet verdict = %v", v)
	}
	if g.AuthFailures != 1 {
		t.Errorf("auth failures = %d", g.AuthFailures)
	}
	m.Free()
}

func TestDecapRejectsTamperedCiphertext(t *testing.T) {
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	m := mkPacket(t, pool, packet.AddrFrom4(10, 1, 1, 1))
	g.Process(m)
	b := m.Bytes()
	b[packet.EthHeaderLen+packet.IPv4HeaderLen+espHeaderLen+ivLen+2] ^= 0x55
	if v := g.Process(m); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	m.Free()
}

func TestAntiReplay(t *testing.T) {
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	m := mkPacket(t, pool, packet.AddrFrom4(10, 1, 1, 1))
	g.Process(m) // encap seq=1
	encapped := append([]byte(nil), m.Bytes()...)
	if v := g.Process(m); v != apps.Forward {
		t.Fatal("first decap failed")
	}
	// Replay the same ESP packet.
	m.SetFrame(encapped)
	if v := g.Process(m); v != apps.Drop {
		t.Fatal("replay accepted")
	}
	if g.Replays != 1 {
		t.Errorf("replays = %d", g.Replays)
	}
	m.Free()
}

func TestReplayWindow(t *testing.T) {
	var w replayWindow
	if w.check(0) {
		t.Error("seq 0 must fail")
	}
	if !w.check(1) || !w.check(2) || !w.check(5) {
		t.Error("fresh sequences rejected")
	}
	if w.check(2) {
		t.Error("replay of 2 accepted")
	}
	if !w.check(3) {
		t.Error("in-window unseen rejected")
	}
	if !w.check(100) {
		t.Error("big jump rejected")
	}
	if w.check(36) {
		t.Error("stale (out of 64-window) accepted")
	}
	if !w.check(99) {
		t.Error("in-window after slide rejected")
	}
}

func TestDecapUnknownSPI(t *testing.T) {
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	m := mkPacket(t, pool, packet.AddrFrom4(10, 1, 1, 1))
	g.Process(m)
	b := m.Bytes()
	b[packet.EthHeaderLen+packet.IPv4HeaderLen] = 0xde // clobber SPI
	if v := g.Process(m); v != apps.Drop {
		t.Fatalf("verdict = %v", v)
	}
	m.Free()
}

func TestPaddingAlignment(t *testing.T) {
	// Whatever the inner size, ESP ciphertext must be block-aligned.
	g, _ := newGW(t)
	pool := mbuf.NewPool(4)
	for size := 60; size < 120; size += 7 {
		m, _ := pool.Get()
		buf := make([]byte, 512)
		frame, err := packet.BuildUDP(buf, size, packet.AddrFrom4(172, 16, 0, 1), packet.AddrFrom4(10, 2, 2, 2), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFrame(frame)
		orig := append([]byte(nil), m.Bytes()...)
		if v := g.Process(m); v != apps.Forward {
			t.Fatalf("size %d: encap failed", size)
		}
		if v := g.Process(m); v != apps.Forward {
			t.Fatalf("size %d: decap failed", size)
		}
		if !bytes.Equal(m.Bytes(), orig) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		m.Free()
	}
}

func TestDuplicateSPIRejected(t *testing.T) {
	g, sa := newGW(t)
	dup := *sa
	if err := g.AddSA(&dup, 0, 0); err == nil {
		t.Fatal("duplicate SPI accepted")
	}
}

func TestLongestPolicyWins(t *testing.T) {
	g, _ := newGW(t)
	sa2 := &SA{SPI: 0x2002, TunnelSrc: 1, TunnelDst: 2}
	if err := g.AddSA(sa2, packet.AddrFrom4(10, 9, 0, 0), 16); err != nil {
		t.Fatal(err)
	}
	if got := g.lookupPolicy(packet.AddrFrom4(10, 9, 1, 1)); got != sa2 {
		t.Error("more specific policy not selected")
	}
	if got := g.lookupPolicy(packet.AddrFrom4(10, 8, 1, 1)); got == sa2 || got == nil {
		t.Error("fallback policy wrong")
	}
}

func TestServiceRateCalibration(t *testing.T) {
	g := New(1)
	mu := apps.ServiceRate(g, 2.1)
	if mu < 5.5e6 || mu > 5.7e6 {
		t.Errorf("ipsec service rate = %v, want ~5.61 Mpps (paper)", mu)
	}
}

func BenchmarkEncap(b *testing.B) {
	g := New(1)
	sa := &SA{SPI: 1}
	g.AddSA(sa, 0, 0)
	pool := mbuf.NewPool(2)
	m, _ := pool.Get()
	buf := make([]byte, 256)
	frame, _ := packet.BuildUDP(buf, 64, 1, 2, 3, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SetFrame(frame)
		g.Process(m)
	}
}

func BenchmarkEncapDecap(b *testing.B) {
	g := New(1)
	sa := &SA{SPI: 1}
	g.AddSA(sa, 0, 0)
	pool := mbuf.NewPool(2)
	m, _ := pool.Get()
	buf := make([]byte, 256)
	frame, _ := packet.BuildUDP(buf, 64, 1, 2, 3, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SetFrame(frame)
		g.Process(m)
		g.Process(m)
	}
}

// FuzzGatewayProcess feeds arbitrary wire bytes through a fresh gateway:
// ESP decap parses untrusted input, so no frame may panic it, and whatever
// it decides must be a valid verdict over a frame that still fits its
// buffer. Frames are capped at a standard 1500 B MTU.
func FuzzGatewayProcess(f *testing.F) {
	g, _ := newGW(f)
	pool := mbuf.NewPool(2)
	plain := mkPacket(f, pool, packet.AddrFrom4(10, 1, 1, 1))
	f.Add(append([]byte(nil), plain.Bytes()...))
	if v := g.Process(plain); v != apps.Forward {
		f.Fatalf("seed encap verdict = %v", v)
	}
	f.Add(append([]byte(nil), plain.Bytes()...))
	plain.Free()

	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 1500 {
			frame = frame[:1500]
		}
		g, _ := newGW(t)
		m, err := mbuf.NewPool(1).Get()
		if err != nil {
			t.Fatal(err)
		}
		m.SetFrame(frame)
		switch v := g.Process(m); v {
		case apps.Forward, apps.Drop, apps.Consume:
		default:
			t.Fatalf("verdict %v", v)
		}
		if m.Len < 0 || m.Len > len(m.Data) {
			t.Fatalf("frame length %d outside its %d B buffer", m.Len, len(m.Data))
		}
		m.Free()
	})
}
