package sched

import (
	"math"

	"metronome/internal/model"
)

// NameUniformVac selects the uniform-vacation ablation discipline.
const NameUniformVac = "uniformvac"

func init() {
	Register(NameUniformVac, func(cfg Config) Policy { return NewUniformVac(cfg) })
}

// UniformVac is the uniform-vacation ablation left open by the policy-layer
// extraction: it assumes the paper's *high-load* regime at every load —
// sibling residual timeouts uniform on [0, TL] (Sec. IV-B's decorrelation)
// — and pins the short timeout by inverting eq. (6) once:
//
//	E[V] = TL/k · (1 - (1 - TS/TL)^k) = V̄
//	  =>  TS = TL · (1 - (1 - k·V̄/TL)^(1/k)),   k = M/N,
//
// so the mean vacation would sit at V̄ *if the load were always high*. No
// load estimate feeds the timeout: where the adaptive discipline stretches
// TS toward k·V̄ as rho falls (fewer busy periods re-synchronise the team,
// so each member may sleep longer), uniformvac keeps sleeping the high-load
// value and over-polls an idle queue — the vacation collapses toward
// TS/(k+1) and CPU rises for nothing. The abl-uniformvac experiment
// measures exactly that gap, isolating what the eq. (11) estimator buys on
// top of the closed-form timeout rule. The estimator still runs so rho
// stays observable.
type UniformVac struct {
	base
}

// NewUniformVac builds the ablation policy; the timeout derives from VBar,
// TL and the team shape once, then only moves on elastic resizes.
func NewUniformVac(cfg Config) *UniformVac {
	p := &UniformVac{}
	p.base.init(cfg)
	p.republish()
	return p
}

// Name implements Policy.
func (p *UniformVac) Name() string { return NameUniformVac }

// evaluate inverts eq. (6) for the current team shape. k is real-valued
// like eq. (14)'s M/N average; loads never enter.
func (p *UniformVac) evaluate() float64 {
	k := float64(p.TeamSize()) / float64(p.cfg.N)
	if k < 1 {
		k = 1
	}
	tl := p.cfg.TL
	if tl <= 0 {
		tl = 50 * p.cfg.VBar
	}
	if tl <= 0 {
		// V̄ = 0 without a TL: spin, as fixed does at V̄ = 0 (the
		// inversion below would be k·0/0).
		return 0
	}
	x := 1 - k*p.cfg.VBar/tl
	if x <= 0 {
		// Even TS = TL cannot hold a vacation this long at high load.
		return tl
	}
	return tl * (1 - math.Pow(x, 1/k))
}

// republish stores the closed-form timeout for every queue.
func (p *UniformVac) republish() {
	ts := p.evaluate()
	for q := range p.ts {
		p.ts[q].Store(ts)
	}
}

// ObserveCycle implements Policy: the estimate updates for observability,
// the timeout ignores it.
func (p *UniformVac) ObserveCycle(q int, busy, vacation float64) float64 {
	p.est.Observe(q, busy, vacation)
	return p.TS(q)
}

// SetTeamSize implements Resizable: k = M/N changed, so the eq. (6)
// inversion re-evaluates.
func (p *UniformVac) SetTeamSize(m int) {
	p.base.SetTeamSize(m)
	p.republish()
}

// EVAtHighLoad exposes the model-side mean vacation the pinned timeout
// yields in the high-load regime (tests assert it equals VBar).
func (p *UniformVac) EVAtHighLoad() float64 {
	k := float64(p.TeamSize()) / float64(p.cfg.N)
	if k < 1 {
		k = 1
	}
	m := int(math.Round(k))
	if m < 1 {
		m = 1
	}
	tl := p.cfg.TL
	if tl <= 0 {
		tl = 50 * p.cfg.VBar
	}
	return model.EVHighLoad(p.TS(0), tl, m)
}
