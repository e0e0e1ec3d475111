package pcap

import (
	"bytes"
	"io"
	"math"
	"testing"

	"metronome/internal/packet"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		{1, 2, 3, 4, 5},
		{0xaa, 0xbb},
		make([]byte, 1500),
	}
	for i, f := range frames {
		if err := w.Write(Record{TS: float64(i) * 1.5, Data: f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("records = %d", len(got))
	}
	for i, rec := range got {
		if !bytes.Equal(rec.Data, frames[i]) {
			t.Errorf("record %d data mismatch", i)
		}
		if math.Abs(rec.TS-float64(i)*1.5) > 1e-6 {
			t.Errorf("record %d ts = %v", i, rec.TS)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Errorf("bad magic err = %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Record{TS: 0, Data: []byte{1, 2, 3, 4}})
	w.Flush()
	full := buf.Bytes()
	// Chop mid-record.
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("empty trace err = %v", err)
	}
}

func TestGenerateUnbalancedShares(t *testing.T) {
	var buf bytes.Buffer
	const n = 5000
	if err := GenerateUnbalanced(&buf, n, 0.30, 1e6, 7); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("records = %d", len(recs))
	}
	heavy := 0
	var p packet.Parsed
	for _, rec := range recs {
		if err := p.Parse(rec.Data); err != nil {
			t.Fatalf("generated frame unparseable: %v", err)
		}
		if p.Key.Src == packet.AddrFrom4(10, 0, 0, 1) && p.Key.SrcPort == 5000 {
			heavy++
		}
	}
	share := float64(heavy) / n
	if share < 0.27 || share > 0.33 {
		t.Errorf("heavy share = %v, want ~0.30", share)
	}
	// Timestamps pace at 1 Mpps.
	if dt := recs[1].TS - recs[0].TS; math.Abs(dt-1e-6) > 1e-7 {
		t.Errorf("pacing = %v", dt)
	}
}

func TestReplayLoops(t *testing.T) {
	recs := []Record{
		{TS: 0, Data: []byte{1}},
		{TS: 0.001, Data: []byte{2}},
		{TS: 0.002, Data: []byte{3}},
	}
	var ts []float64
	Replay(recs, 3, func(t float64, frame []byte) { ts = append(ts, t) })
	if len(ts) != 9 {
		t.Fatalf("replayed %d", len(ts))
	}
	// Monotone timestamps across loop boundaries.
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("timestamps not increasing at %d: %v", i, ts)
		}
	}
}

func TestReplayDegenerate(t *testing.T) {
	called := false
	Replay(nil, 5, func(float64, []byte) { called = true })
	Replay([]Record{{TS: 1}}, 0, func(float64, []byte) { called = true })
	if called {
		t.Error("degenerate replay invoked callback")
	}
}

// FuzzPcap: ReadAll never panics on arbitrary bytes, and the same bytes,
// chopped into frames whose lengths they pick themselves, come back
// unchanged through a Writer → Reader round trip.
func FuzzPcap(f *testing.F) {
	var trace bytes.Buffer
	if err := GenerateUnbalanced(&trace, 4, 0.5, 1e6, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	f.Add(trace.Bytes()[:trace.Len()-7]) // truncated record
	f.Add(trace.Bytes()[:fileHeaderLen])
	f.Add([]byte{})
	f.Add([]byte("not a capture file, not even close"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadAll(bytes.NewReader(data))

		var want []Record
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := 1 + int(rest[0])
			if n > len(rest) {
				n = len(rest)
			}
			want = append(want, Record{TS: float64(i) + float64(n)*1e-6, Data: rest[:n]})
			rest = rest[n:]
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range want {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != len(want) {
			t.Fatalf("read back %d records (%v), wrote %d", len(got), err, len(want))
		}
		for i := range want {
			// The format stores whole microseconds, truncated.
			if !bytes.Equal(got[i].Data, want[i].Data) || math.Abs(got[i].TS-want[i].TS) > 1.001e-6 {
				t.Fatalf("record %d: got TS %v len %d, want TS %v len %d",
					i, got[i].TS, len(got[i].Data), want[i].TS, len(want[i].Data))
			}
		}
	})
}

func BenchmarkWrite(b *testing.B) {
	frame := make([]byte, 64)
	var sink bytes.Buffer
	w, _ := NewWriter(&sink)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Write(Record{TS: float64(i), Data: frame})
		if sink.Len() > 1<<24 {
			sink.Reset()
		}
	}
}
