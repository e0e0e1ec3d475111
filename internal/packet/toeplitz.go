package packet

// DefaultRSSKey is the 40-byte Microsoft/Intel reference Toeplitz key that
// DPDK and most NIC drivers ship as their default (the value ixgbe and i40e
// program unless overridden). Using it means our RSS spreading matches what
// the paper's X520/XL710 NICs actually computed.
var DefaultRSSKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// Toeplitz computes the RSS hash over an input tuple using a 40-byte key,
// per the Microsoft RSS specification: for every set bit i of the input
// (MSB first), XOR into the result the 32-bit window of the key that starts
// at bit offset i.
//
// Hashing runs on lookup tables precomputed by NewToeplitz — one 256-entry
// table per byte position of the 12-byte RSS IPv4 tuple, each entry the XOR
// of the key windows of that byte value's set bits — so hashing a tuple
// costs 12 table loads and XORs instead of a 96-iteration bit walk. GF(2)
// linearity makes the tables exact; the bit-walk reference implementation
// is the equivalence-test oracle (hashSlow in toeplitz_test.go).
type Toeplitz struct {
	key [40]byte
	// tab[i][v] is the hash contribution of byte value v at tuple byte
	// position i.
	tab [12][256]uint32
}

// NewToeplitz returns a hasher for key, precomputing the per-(position,
// byte-value) lookup tables (12x256 uint32, built once per hasher). Each
// position's single-bit entries are the key windows; every other entry is
// the entry without its lowest set bit XOR the entry of that bit.
func NewToeplitz(key [40]byte) *Toeplitz {
	t := &Toeplitz{key: key}
	for pos := range t.tab {
		tab := &t.tab[pos]
		for bit := 0; bit < 8; bit++ {
			tab[0x80>>bit] = t.window(pos*8 + bit)
		}
		for v := 1; v < 256; v++ {
			low := v & -v
			tab[v] = tab[v^low] ^ tab[low]
		}
	}
	return t
}

// window returns the 32 bits of the key starting at bit offset off,
// zero-padded past the end of the key.
func (t *Toeplitz) window(off int) uint32 {
	byteOff := off / 8
	shift := off % 8
	var v uint64 // 40 bits of key material covering the window
	for k := 0; k < 5; k++ {
		v <<= 8
		if byteOff+k < len(t.key) {
			v |= uint64(t.key[byteOff+k])
		}
	}
	return uint32(v >> (8 - uint(shift)))
}

// HashFlow computes the standard RSS IPv4 4-tuple hash over
// (src addr, dst addr, src port, dst port), all big-endian — the hash the
// X520/XL710 use to pick an Rx queue for TCP/UDP traffic. The tables are
// indexed straight from the key's words, most significant byte first; the
// address terms repeat HashAddrs' because a call costs more than the loads.
func (t *Toeplitz) HashFlow(k FlowKey) uint32 {
	s, d, sp, dp := uint32(k.Src), uint32(k.Dst), k.SrcPort, k.DstPort
	return t.tab[0][byte(s>>24)] ^ t.tab[1][byte(s>>16)] ^ t.tab[2][byte(s>>8)] ^ t.tab[3][byte(s)] ^
		t.tab[4][byte(d>>24)] ^ t.tab[5][byte(d>>16)] ^ t.tab[6][byte(d>>8)] ^ t.tab[7][byte(d)] ^
		t.tab[8][byte(sp>>8)] ^ t.tab[9][byte(sp)] ^ t.tab[10][byte(dp>>8)] ^ t.tab[11][byte(dp)]
}

// HashAddrs computes the 2-tuple (addresses only) variant used for
// non-TCP/UDP IPv4 traffic: HashFlow's first eight input bytes.
func (t *Toeplitz) HashAddrs(k FlowKey) uint32 {
	s, d := uint32(k.Src), uint32(k.Dst)
	return t.tab[0][byte(s>>24)] ^ t.tab[1][byte(s>>16)] ^ t.tab[2][byte(s>>8)] ^ t.tab[3][byte(s)] ^
		t.tab[4][byte(d>>24)] ^ t.tab[5][byte(d>>16)] ^ t.tab[6][byte(d>>8)] ^ t.tab[7][byte(d)]
}

// QueueFor maps a flow to one of n queues through the low bits of the RSS
// hash, mirroring the indirection-table default of an even spread. A
// power-of-two n reduces with a mask, which equals the modulus.
func (t *Toeplitz) QueueFor(k FlowKey, n int) int {
	if n <= 1 {
		return 0
	}
	var h uint32
	if k.Proto == ProtoTCP || k.Proto == ProtoUDP {
		h = t.HashFlow(k)
	} else {
		h = t.HashAddrs(k)
	}
	if n&(n-1) == 0 {
		return int(h & uint32(n-1))
	}
	return int(h % uint32(n))
}
