package sched

import (
	"math"
	"sync/atomic"

	"metronome/internal/model"
)

// atomicF64 is a float64 readable and writable without tearing; the live
// runtime reads TS/rho from goroutines other than the one observing cycles.
type atomicF64 struct {
	bits atomic.Uint64
}

func (a *atomicF64) Load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicF64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// Alpha is the EWMA smoothing of the load estimator, eq. (11)'s α: the
// paper's 0.125.
const Alpha = 0.125

// RhoEstimator maintains one EWMA load estimate per queue (eq. 11),
// combining each cycle's busy and vacation period through eq. (4). It
// follows the paper's runtime in initialising the average directly from the
// first observation. Reads are safe from any goroutine; Observe(q, ...)
// must be serialised per queue (the lock holder's privilege), matching how
// both execution substrates call it.
type RhoEstimator struct {
	rho     []atomicF64
	started []atomic.Bool
}

// NewRhoEstimator builds an estimator over n queues.
func NewRhoEstimator(n int) *RhoEstimator {
	if n < 1 {
		n = 1
	}
	return &RhoEstimator{
		rho:     make([]atomicF64, n),
		started: make([]atomic.Bool, n),
	}
}

// Rho returns queue q's current estimate.
func (e *RhoEstimator) Rho(q int) float64 { return e.rho[q].Load() }

// Observe folds one cycle into queue q's estimate and returns the new
// value.
func (e *RhoEstimator) Observe(q int, busy, vacation float64) float64 {
	sample := model.Rho(busy, vacation)
	var next float64
	if !e.started[q].Load() {
		e.started[q].Store(true)
		next = sample
	} else {
		next = (1-Alpha)*e.rho[q].Load() + Alpha*sample
	}
	e.rho[q].Store(next)
	return next
}

// Set forces queue q's estimate (test seeding and warm-start).
func (e *RhoEstimator) Set(q int, rho float64) {
	e.started[q].Store(true)
	e.rho[q].Store(rho)
}
