package mbuf

import (
	"bytes"
	"testing"
	"unsafe"

	"metronome/internal/packet"
)

// TestPrefetchCoversLayout pins what PrefetchBurst's two hints rest on, on
// the addresses the allocator really hands out (64 B-aligned up to go 1.21;
// 8 past a line boundary since go 1.22 put an 8 B type header ahead of every
// large pointerful object): for every buffer of a pool, the fields the Rx
// path reads first — Data, Len, RxStampNs: the runner's stamp loop and Bytes
// — lie in the line the first hint names, and the headers a parser walks —
// Ethernet + IPv4 + UDP, backing[0:42] — in the line the second names. A
// field added ahead of these, a larger one, or an allocator that places
// buffers differently fails here instead of silently moving the first touch
// off the prefetched lines.
func TestPrefetchCoversLayout(t *testing.T) {
	const headers = packet.EthHeaderLen + packet.IPv4HeaderLen + 8
	line := func(p unsafe.Pointer) uintptr { return uintptr(p) / cacheLine }
	p := NewPool(64)
	ms := make([]*Mbuf, p.Size())
	if n := p.getSpan(ms); n != len(ms) {
		t.Fatalf("leased %d of %d", n, len(ms))
	}
	for i, m := range ms {
		base := unsafe.Pointer(m)
		if line(unsafe.Pointer(&m.Data)) != line(base) || line(unsafe.Pointer(&m.Len)) != line(base) ||
			line(unsafe.Add(unsafe.Pointer(&m.RxStampNs), unsafe.Sizeof(m.RxStampNs)-1)) != line(base) {
			t.Errorf("buffer %d at %p: Data/Len/RxStampNs (offsets %d/%d/%d) leave the header line",
				i, m, unsafe.Offsetof(m.Data), unsafe.Offsetof(m.Len), unsafe.Offsetof(m.RxStampNs))
		}
		hinted := line(unsafe.Add(base, frameLineOff))
		if line(unsafe.Pointer(&m.backing[0])) != hinted || line(unsafe.Pointer(&m.backing[headers-1])) != hinted {
			t.Errorf("buffer %d at %p: backing[0:%d] (offset %d) is not in the line at offset %d",
				i, m, headers, unsafe.Offsetof(m.backing), frameLineOff)
		}
	}
	p.putSpan(ms)
}

// TestPrefetchChangesNothing runs the primitive — the assembly loops here,
// the stub on an architecture without one — over an empty burst, a single
// buffer and every buffer of a pool, nil entries included, and checks that
// nothing a program can observe moved. Under -race it also shows the hints
// are not accesses.
func TestPrefetchChangesNothing(t *testing.T) {
	PrefetchBurst(nil)
	PrefetchBurst([]*Mbuf{})
	PrefetchBurst([]*Mbuf{nil})
	PrefetchLines(nil)
	PrefetchLines([]uintptr{0, 1, ^uintptr(0)})

	p := NewPool(256)
	ms := make([]*Mbuf, 0, p.Size()+1)
	frames := make([][]byte, 0, p.Size())
	for i := 0; i < p.Size(); i++ {
		m, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		f := bytes.Repeat([]byte{byte(i)}, 60+i%5)
		m.SetFrame(f)
		m.RxStampNs = int64(1000 + i)
		m.Meta = uint64(i)
		ms, frames = append(ms, m), append(frames, f)
	}
	PrefetchBurst(ms[:1])
	PrefetchBurst(append(ms, nil))
	addrs := make([]uintptr, len(ms))
	for i, m := range ms {
		addrs[i] = uintptr(unsafe.Pointer(&m.backing[maxFrame-1]))
	}
	PrefetchLines(addrs)
	for i, m := range ms {
		if !bytes.Equal(m.Bytes(), frames[i]) || m.RxStampNs != int64(1000+i) || m.Meta != uint64(i) ||
			m.pool != p || &m.Data[0] != &m.backing[0] {
			t.Fatalf("buffer %d changed under a prefetch", i)
		}
	}
	FreeBurst(ms)
	if p.Available() != p.Size() {
		t.Fatalf("available %d of %d", p.Available(), p.Size())
	}
}
