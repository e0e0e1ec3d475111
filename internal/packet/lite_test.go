package packet

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// buildTCP assembles an Ethernet/IPv4/TCP frame for the fast-path tests
// (BuildUDP covers the UDP shape).
func buildTCP(size int, src, dst Addr, sport, dport uint16) []byte {
	if size < MinFrame {
		size = MinFrame
	}
	frame := make([]byte, size)
	eth := Ethernet{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}, EtherType: EtherTypeIPv4}
	_ = eth.SerializeTo(frame)
	ip := IPv4{TotalLen: uint16(size - EthHeaderLen), TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}
	_ = ip.SerializeTo(frame[EthHeaderLen:])
	tcp := TCP{SrcPort: sport, DstPort: dport, Window: 4096}
	_ = tcp.SerializeTo(frame[EthHeaderLen+IPv4HeaderLen:])
	return frame
}

// checkLiteMatchesParse asserts the acceptance contract: ParseLite rejects a
// frame iff Parse does, and on acceptance agrees on Key, TTL and TotalLen.
func checkLiteMatchesParse(t testing.TB, frame []byte) {
	t.Helper()
	var p Parsed
	var l Lite
	perr := p.Parse(frame)
	lerr := ParseLite(frame, &l)
	if (perr == nil) != (lerr == nil) {
		t.Fatalf("accept/reject divergence: Parse=%v ParseLite=%v frame=%x", perr, lerr, frame)
	}
	if perr != nil {
		return
	}
	if l.Key != p.Key {
		t.Fatalf("key divergence: lite=%v parsed=%v", l.Key, p.Key)
	}
	if l.TTL != p.IP.TTL {
		t.Fatalf("ttl divergence: lite=%d parsed=%d", l.TTL, p.IP.TTL)
	}
	if l.TotalLen != p.IP.TotalLen {
		t.Fatalf("totallen divergence: lite=%d parsed=%d", l.TotalLen, p.IP.TotalLen)
	}
}

// structuredFrames is one row per branch of the two parsers: legal UDP and
// TCP, every truncation point, every illegal header field, the TTL edges —
// the row kinds internal/apps' equivalence stream draws at random (legal,
// runt, wrong ethertype, version nibble, TTL edge) plus the ones it cannot
// reach. The structured test walks them; the fuzz target starts from them.
func structuredFrames(t testing.TB) [][]byte {
	t.Helper()
	buf := make([]byte, 256)
	udp, err := BuildUDP(buf, 80, AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 1, 1), 1000, 53)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		udp,
		buildTCP(96, AddrFrom4(192, 168, 0, 5), AddrFrom4(10, 0, 0, 9), 443, 55555),
		nil,       // empty
		udp[:10],  // truncated ethernet
		udp[:20],  // truncated IPv4
		udp[:40],  // truncated below TotalLen
		udp[:140], // padding beyond TotalLen tolerated
	}
	// Wrong ethertype.
	f := append([]byte(nil), udp...)
	binary.BigEndian.PutUint16(f[12:14], 0x86dd)
	frames = append(frames, f)
	// IPv6 version nibble.
	f = append([]byte(nil), udp...)
	f[EthHeaderLen] = 0x65
	frames = append(frames, f)
	// IPv4 options (ihl=6).
	f = append([]byte(nil), udp...)
	f[EthHeaderLen] = 0x46
	frames = append(frames, f)
	// TotalLen below the header size.
	f = append([]byte(nil), udp...)
	binary.BigEndian.PutUint16(f[EthHeaderLen+2:EthHeaderLen+4], 8)
	frames = append(frames, f)
	// TotalLen beyond the frame.
	f = append([]byte(nil), udp...)
	binary.BigEndian.PutUint16(f[EthHeaderLen+2:EthHeaderLen+4], 4000)
	frames = append(frames, f)
	// UDP length field below the header size.
	f = append([]byte(nil), udp...)
	binary.BigEndian.PutUint16(f[EthHeaderLen+IPv4HeaderLen+4:EthHeaderLen+IPv4HeaderLen+6], 4)
	frames = append(frames, f)
	// TotalLen leaving a truncated UDP header.
	f = append([]byte(nil), udp...)
	binary.BigEndian.PutUint16(f[EthHeaderLen+2:EthHeaderLen+4], IPv4HeaderLen+4)
	frames = append(frames, f)
	// Unknown L4 protocol: port-less key.
	f = append([]byte(nil), udp...)
	f[EthHeaderLen+9] = 99
	frames = append(frames, f)
	// TCP with a bad data offset.
	f = buildTCP(96, AddrFrom4(1, 2, 3, 4), AddrFrom4(5, 6, 7, 8), 1, 2)
	f[EthHeaderLen+IPv4HeaderLen+12] = 2 << 4
	frames = append(frames, f)
	// TotalLen leaving a truncated TCP header.
	f = buildTCP(96, AddrFrom4(1, 2, 3, 4), AddrFrom4(5, 6, 7, 8), 1, 2)
	binary.BigEndian.PutUint16(f[EthHeaderLen+2:EthHeaderLen+4], IPv4HeaderLen+10)
	frames = append(frames, f)
	// TTL edge values (the forwarding apps branch on TTL <= 1).
	for _, ttl := range []byte{0, 1, 2, 255} {
		f = append([]byte(nil), udp...)
		f[EthHeaderLen+8] = ttl
		frames = append(frames, f)
	}
	return frames
}

func TestParseLiteMatchesParseStructured(t *testing.T) {
	for _, frame := range structuredFrames(t) {
		frame := frame
		t.Run("", func(t *testing.T) {
			checkLiteMatchesParse(t, frame)
		})
	}
}

// FuzzParseLiteAgreesWithParse is the coverage-guided form of the contract
// the burst paths rest on: ParseLite errs iff Parse errs, and on accept the
// two agree on Key, TTL and TotalLen. Without -fuzz the seed rows run as
// ordinary subtests; CI fuzzes for ten seconds on top.
func FuzzParseLiteAgreesWithParse(f *testing.F) {
	for _, frame := range structuredFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkLiteMatchesParse(t, frame)
	})
}

// Randomised sweep: valid frames with random point mutations, plus pure
// noise. ParseLite must agree with Parse on every one of them.
func TestParseLiteMatchesParseFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 512)
	for iter := 0; iter < 20000; iter++ {
		var frame []byte
		switch rng.Intn(3) {
		case 0: // mutated UDP
			size := 60 + rng.Intn(120)
			f, err := BuildUDP(buf, size, Addr(rng.Uint32()), Addr(rng.Uint32()),
				uint16(rng.Intn(65536)), uint16(rng.Intn(65536)))
			if err != nil {
				t.Fatal(err)
			}
			frame = append([]byte(nil), f...)
		case 1: // mutated TCP
			frame = buildTCP(60+rng.Intn(120), Addr(rng.Uint32()), Addr(rng.Uint32()),
				uint16(rng.Intn(65536)), uint16(rng.Intn(65536)))
		default: // noise
			frame = make([]byte, rng.Intn(128))
			rng.Read(frame)
		}
		for m := rng.Intn(4); m > 0; m-- {
			if len(frame) == 0 {
				break
			}
			frame[rng.Intn(len(frame))] = byte(rng.Intn(256))
		}
		if rng.Intn(4) == 0 && len(frame) > 0 {
			frame = frame[:rng.Intn(len(frame))]
		}
		checkLiteMatchesParse(t, frame)
	}
}

func TestFlowKeyLess(t *testing.T) {
	a := FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 5}
	cases := []FlowKey{
		{Src: 2, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 5},
		{Src: 1, Dst: 3, SrcPort: 3, DstPort: 4, Proto: 5},
		{Src: 1, Dst: 2, SrcPort: 4, DstPort: 4, Proto: 5},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 5, Proto: 5},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 6},
	}
	for _, b := range cases {
		if !a.Less(b) || b.Less(a) {
			t.Fatalf("ordering broken for %v vs %v", a, b)
		}
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}
