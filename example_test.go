package metronome_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"metronome"
)

// Embedding the live runtime in an application: a producer leases buffers
// from a pool and enqueues them, and a three-goroutine Runner drains the
// queue into a handler that consumes and frees each packet.
func ExampleNewRxRing() {
	pool := metronome.NewPool(4096)
	// One producer feeds this queue and one Runner drains it: NewRxRing
	// selects the SPSC fast path automatically (use NewRing for the MPMC
	// ring when several producers share a queue).
	rx, err := metronome.NewRxRing(1024, 1, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	var processed atomic.Int64
	r := metronome.NewRunner(
		[]metronome.RxQueue{rx},
		func(batch []*metronome.Mbuf) {
			processed.Add(int64(len(batch)))
			for _, m := range batch {
				m.Free()
			}
		},
		metronome.RunnerConfig{M: 3, VBar: 200 * time.Microsecond},
	)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()

	const n = 1000
	for sent := 0; sent < n; {
		m, err := pool.Get()
		if err == nil && rx.Enqueue(m) {
			sent++
			continue
		}
		if err == nil {
			m.Free() // ring full: hand the buffer back and let the team drain
		}
		time.Sleep(50 * time.Microsecond)
	}
	for deadline := time.Now().Add(5 * time.Second); processed.Load() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	fmt.Println("processed:", processed.Load())
	// Output: processed: 1000
}

// Autoscaling a runner over a telemetry bus: the runner publishes into the
// bus, and the controller samples it and grows or parks retrieval
// goroutines as the load moves. Ticks carry the runner's own Elapsed clock,
// so the controller's decisions and the runner's placement events share one
// timeline.
func ExampleNewElasticController() {
	pool := metronome.NewPool(4096)
	rx, err := metronome.NewRxRing(1024, 1, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	bus := metronome.NewTelemetryBus(1, 8) // 1 queue, budget-sized thread slots
	r := metronome.NewRunner(
		[]metronome.RxQueue{rx},
		func(batch []*metronome.Mbuf) {
			for _, m := range batch {
				m.Free()
			}
		},
		metronome.RunnerConfig{M: 2, Bus: bus},
	)
	ctrl := metronome.NewElasticController(bus, r,
		metronome.DefaultElasticConfig(2 /* floor */, 8 /* core budget */))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { r.Run(ctx); close(done) }()

	// One control period per millisecond for 50 ms, with a burst of load
	// offered between ticks.
	tick := time.NewTicker(time.Millisecond)
	for i := 0; i < 50; i++ {
		<-tick.C
		ctrl.Tick(r.Elapsed())
		for j := 0; j < 64; j++ {
			m, err := pool.Get()
			if err != nil {
				break
			}
			if !rx.Enqueue(m) {
				m.Free()
				break
			}
		}
	}
	tick.Stop()
	cancel()
	<-done
	m := r.TeamSize()
	fmt.Printf("team within [2, 8]: %v\n", m >= 2 && m <= 8)
	// Output: team within [2, 8]: true
}
