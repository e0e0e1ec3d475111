package sched

import "metronome/internal/model"

// NameAdaptive selects the paper's adaptive discipline.
const NameAdaptive = "adaptive"

func init() {
	Register(NameAdaptive, func(cfg Config) Policy { return NewAdaptiveTS(cfg) })
}

// AdaptiveTS is the paper's discipline: eq. (13)/(14) re-evaluate the short
// timeout after every cycle so the mean vacation period holds at VBar as
// the per-queue load estimate moves.
type AdaptiveTS struct {
	base
}

// NewAdaptiveTS builds the adaptive policy; every queue starts at the
// rho=0 timeout (M/N)*VBar.
func NewAdaptiveTS(cfg Config) *AdaptiveTS {
	p := &AdaptiveTS{}
	p.base.init(cfg)
	for q := range p.ts {
		p.ts[q].Store(p.evaluate(0))
	}
	return p
}

// Name implements Policy.
func (p *AdaptiveTS) Name() string { return NameAdaptive }

// evaluate is eq. (14) (eq. (13) when N=1) for a load estimate, using the
// live team size so elastic resizes re-shape the timeout rule online.
func (p *AdaptiveTS) evaluate(rho float64) float64 {
	return model.TSForTargetMultiqueue(p.cfg.VBar, rho, p.TeamSize(), p.cfg.N)
}

// ObserveCycle implements Policy.
func (p *AdaptiveTS) ObserveCycle(q int, busy, vacation float64) float64 {
	ts := p.evaluate(p.est.Observe(q, busy, vacation))
	p.ts[q].Store(ts)
	return ts
}

// SetTeamSize implements Policy: eq. (14) depends on M, so the cached
// per-queue timeouts re-evaluate immediately at the current load estimates
// instead of waiting one cycle per queue. Concurrent ObserveCycle stores
// race benignly: both values are valid eq. (14) outputs and the next cycle
// converges them.
func (p *AdaptiveTS) SetTeamSize(m int) {
	p.base.SetTeamSize(m)
	for q := range p.ts {
		p.ts[q].Store(p.evaluate(p.est.Rho(q)))
	}
}
