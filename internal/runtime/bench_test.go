package runtime

import (
	"context"
	goruntime "runtime"
	"testing"

	"metronome/internal/apps"
	"metronome/internal/apps/l3fwd"
	"metronome/internal/mbuf"
	"metronome/internal/packet"
	"metronome/internal/telemetry"
	"metronome/internal/traffic"
)

// doneAfter wraps a processor and closes done once want packets have gone
// through it, so the benchmark's goroutine can block instead of polling a
// counter on a CPU the measured threads need. Single-writer under the
// runner's per-queue trylock.
type doneAfter struct {
	apps.BurstProcessor
	seen, want int
	done       chan struct{}
}

func (d *doneAfter) ProcessBurst(ms []*mbuf.Mbuf, verdicts []apps.Verdict) {
	d.BurstProcessor.ProcessBurst(ms, verdicts)
	if d.seen < d.want && d.seen+len(ms) >= d.want {
		close(d.done)
	}
	d.seen += len(ms)
}

// BenchmarkRunnerL3fwd is the saturated live path in one process: a producer
// on a locked OS thread leases buffers from its mempool cache, writes 64 B
// frames with random destinations into them and fills an SPSC ring as fast
// as it drains; a NewProc runner as the commands deploy it (defaults:
// adaptive, M=3, GoSleeper; a bus attached, so every stamp is read and
// recorded) retrieves, forwards through l3fwd and recycles. One op is one
// packet through all of it and allocs/op must read 0.
//
// The number to compare is busy-ns/pkt: the team's on-CPU cycle time (the
// bus's per-thread busy gauges, what the bench calls duty) per packet — the
// composed cost a change to the cycle, the ring, the pool or l3fwd moves.
// Wall ns/op is reported too but is bistable: while the producer outpaces the
// team the ring never empties and ns/op equals busy-ns/pkt; once the team is
// the faster side it drains the ring, sleeps its millisecond (see
// Config.VBar) and the run settles at one ring per millisecond, ~250 ns/op,
// whatever a packet costs. It needs two CPUs to mean anything and is for
// same-session parent/change pairs (alternate the two test binaries), not a
// CI gate.
func BenchmarkRunnerL3fwd(b *testing.B) {
	const ringCap, nFrames, burst = 4096, 1 << 14, 32
	fwd := l3fwd.New([]l3fwd.Port{
		{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 1}},
		{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, GwMAC: packet.MAC{2, 0, 0, 0, 1, 2}},
	})
	if err := fwd.Table.Add(0, 1, 0); err != nil {
		b.Fatal(err)
	}
	if err := fwd.Table.Add(packet.AddrFrom4(128, 0, 0, 0), 2, 1); err != nil {
		b.Fatal(err)
	}
	gen := traffic.NewFrameGen(17, 4096, 64)
	frames := make([][64]byte, nFrames)
	for i := range frames {
		f, _ := gen.Next()
		copy(frames[i][:], f)
	}
	pool := mbuf.NewPool(4 * ringCap)
	rx, err := NewRxRing(ringCap, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	proc := &doneAfter{BurstProcessor: fwd, want: b.N, done: make(chan struct{})}
	cfg := Config{Seed: 1}
	cfg.defaults()
	cfg.Bus = telemetry.NewBus(1, cfg.M)
	r := NewProc([]RxQueue{rx}, []apps.BurstProcessor{proc}, nil, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() { defer close(ran); r.Run(ctx) }()
	produced := make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		defer close(produced)
		goruntime.LockOSThread()
		defer goruntime.UnlockOSThread()
		cache := pool.NewCache()
		defer cache.Flush()
		bufs := make([]*mbuf.Mbuf, burst)
		for sent := 0; sent < b.N; {
			n := cache.GetBurst(bufs[:min(burst, b.N-sent)])
			now := mbuf.Nanotime()
			for i, m := range bufs[:n] {
				m.SetFrame(frames[(sent+i)%nFrames][:])
				m.RxStampNs = now
			}
			for batch := bufs[:n]; len(batch) > 0; {
				// A full ring is spun on: the thread owns its CPU.
				batch = batch[rx.EnqueueBurst(batch):]
			}
			sent += n
		}
	}()
	<-proc.done
	b.StopTimer()
	<-produced
	cancel()
	<-ran
	var busy float64
	for t := 0; t < cfg.M; t++ {
		busy += cfg.Bus.Thread(telemetry.BusySeconds, t)
	}
	b.ReportMetric(busy*1e9/float64(b.N), "busy-ns/pkt")
	if got := int(r.Stats.Packets.Load()); got != b.N {
		b.Fatalf("retrieved %d of %d packets", got, b.N)
	}
	if pool.Available() != pool.Size() {
		b.Fatalf("pool holds %d of %d buffers after the run", pool.Available(), pool.Size())
	}
}
