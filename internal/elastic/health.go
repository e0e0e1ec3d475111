package elastic

// This file is the health layer: the self-healing half of the control
// plane. The size and placement laws in elastic.go assume the telemetry
// they sample is true and the members they provision actually serve; this
// file drops both assumptions. Staleness is detected from the bus's
// per-queue publish sequences and member liveness from the per-thread
// heartbeat gauges — both by value change, never by clock arithmetic, so
// one detector serves the sim substrate (virtual seconds) and the live
// runner (elapsed seconds) without cross-clock comparisons.

import "metronome/internal/telemetry"

// healthState carries the detectors' memory between ticks.
type healthState struct {
	homer Homer // nil when the substrate cannot map threads to homes

	prevPub  []uint64 // last-seen publish sequence per queue
	staleFor []int    // consecutive ticks queue q's sequence held still
	prevHB   []float64
	hbSame   []int  // consecutive ticks thread t's heartbeat held still
	exiled   []bool // latched per member until its heartbeat moves again
	grace    int    // ticks to hold exile after an actuation (re-home wobble)

	tokens   float64 // actuation token bucket (MaxActuationsPerSec)
	tokensAt float64

	// Window stats backing Report.
	exiles      int
	safeTicks   int
	staleQTicks int
	panics      int
	panicMsg    string // first watchdog-recovered panic's rendered value
	panicStack  string // and its goroutine stack
}

func newHealthState(bus *telemetry.Bus) *healthState {
	return &healthState{
		prevPub:  make([]uint64, bus.Queues()),
		staleFor: make([]int, bus.Queues()),
		prevHB:   make([]float64, bus.Threads()),
		hbSame:   make([]int, bus.Threads()),
		exiled:   make([]bool, bus.Threads()),
		tokens:   2, // allow a short recovery burst from a cold bucket
	}
}

// seed baselines the detectors from the calibration tick's snapshot.
func (h *healthState) seed(snap *telemetry.Snapshot, now float64) {
	copy(h.prevPub, snap.Counter[telemetry.PubSeq])
	copy(h.prevHB, snap.Thread[telemetry.Heartbeat])
	h.tokensAt = now
}

// stale reports whether queue q's gauges are past the staleness bound.
func (h *healthState) stale(q, bound int) bool {
	return h.staleFor[q] >= bound
}

// anyExiled reports whether an exile latch is live. While one is, the size
// and placement laws must not shrink or rebalance: the latched member is
// provisioned but serving nothing, so the PI's occupancy view overcounts
// capacity by exactly the member the exile reinforcement replaced —
// unwinding it would re-starve the straggler's queue. A permanently dead
// member keeps its latch (its heartbeat never moves again), so the
// reinforcement persists for as long as the fault does.
func (h *healthState) anyExiled() bool {
	for _, e := range h.exiled {
		if e {
			return true
		}
	}
	return false
}

// healthObserve advances the staleness and liveness detectors for this tick
// and records what they saw in d. It returns true when every queue is stale
// — the bus went dark and the tick must fall back to SafeTeam.
func (c *Controller) healthObserve(d *Decision, cur int) bool {
	h := c.health
	staleCount := 0
	for q := 0; q < c.bus.Queues(); q++ {
		if seq := c.snap.Counter[telemetry.PubSeq][q]; seq != h.prevPub[q] {
			h.prevPub[q] = seq
			h.staleFor[q] = 0
		} else {
			h.staleFor[q]++
		}
		if h.stale(q, c.cfg.StaleTicks) {
			d.StaleMask |= 1 << uint(q%64)
			staleCount++
			h.staleQTicks++
		}
	}
	for i := range h.prevHB {
		hb := c.snap.Thread[telemetry.Heartbeat][i]
		if hb != h.prevHB[i] {
			h.prevHB[i] = hb
			h.hbSame[i] = 0
			if h.exiled[i] {
				// The straggler's heartbeat moved: the stall ended or the
				// member was revived. Clear the latch — the PI unwinds the
				// reinforcement on its own once occupancy settles.
				h.exiled[i] = false
				d.Recovered = append(d.Recovered, i)
			}
			continue
		}
		if hb == 0 || i >= cur {
			// Never beat (spare slot) or outside the active team: a parked
			// member's silence is policy, not a fault.
			h.hbSame[i] = 0
			continue
		}
		h.hbSame[i]++
		if h.hbSame[i] >= c.cfg.HeartbeatTicks && !h.exiled[i] && h.grace == 0 {
			d.Unhealthy = append(d.Unhealthy, i)
		}
	}
	if h.grace > 0 {
		h.grace--
	}
	return staleCount > 0 && staleCount == c.bus.Queues()
}

// healthSafeMode is the all-stale fallback: with no trustworthy signal,
// hold the team and grow it toward the configured safe static size.
func (c *Controller) healthSafeMode(d *Decision, now float64, cur int) {
	h := c.health
	h.safeTicks++
	want := c.cfg.SafeTeam
	if want < cur {
		want = cur // grow-only: never shrink on no information
	}
	d.Want = want
	if want != cur && c.takeToken(now) {
		// The caller records the resize (counter, integral sync, grace):
		// safe-mode ticks return through the same finishing tail.
		d.Applied = c.actuate(want, d)
		d.Resized = d.Applied != cur
	}
}

// healthExile reinforces the home queues of this tick's stragglers: each
// unhealthy member's home gets one extra member through a corrective plan
// (the scalar grow fallback when the substrate cannot place), clamped to
// Budget. The member itself stays provisioned — a stall ends, a death is
// reclaimed by the PI's shrink path once the exile latch clears.
func (c *Controller) healthExile(d *Decision, now float64) {
	h := c.health
	if d.SafeMode || len(d.Unhealthy) == 0 {
		return
	}
	cur := d.Applied
	for _, id := range d.Unhealthy {
		if cur >= c.cfg.Budget {
			break // no headroom: latch nothing, retry when budget frees up
		}
		if !c.takeToken(now) {
			break
		}
		applied := cur
		if c.act != nil && h.homer != nil {
			plan := append(c.planBuf[:0], c.lastPlan...)
			home := h.homer.ThreadHome(id)
			if home >= 0 && home < len(plan) {
				plan[home]++
				applied = c.applyPlan(plan, d)
			}
		} else {
			applied = c.team.SetTeamSize(cur + 1)
		}
		if applied == cur {
			continue
		}
		h.exiled[id] = true
		h.exiles++
		d.Exiled = append(d.Exiled, id)
		cur = applied
	}
	if cur != d.Applied {
		// Mark the tick resized: the caller's tail does the resize
		// bookkeeping (counter, integral sync, grace arming) exactly once.
		d.Applied = cur
		d.Resized = true
	}
}

// takeToken charges the actuation rate limiter; always true when the limit
// or the health layer is off. The bucket holds at most two tokens, so a
// controller recovering from an outage cannot burst-actuate through the
// stale state it wakes up to.
func (c *Controller) takeToken(now float64) bool {
	if c.health == nil || c.cfg.MaxActuationsPerSec <= 0 {
		return true
	}
	h := c.health
	h.tokens += (now - h.tokensAt) * c.cfg.MaxActuationsPerSec
	if h.tokens > 2 {
		h.tokens = 2
	}
	h.tokensAt = now
	if h.tokens < 1 {
		c.cfg.Recorder.RecordRateLimit(now)
		return false
	}
	h.tokens--
	return true
}
