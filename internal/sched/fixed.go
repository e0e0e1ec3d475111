package sched

// NameFixed selects the constant-timeout discipline.
const NameFixed = "fixed"

func init() {
	Register(NameFixed, func(cfg Config) Policy { return NewFixedTS(cfg) })
}

// FixedTS sleeps a constant short timeout regardless of load — the
// equal-timeout strawman of Fig 6 and the TS=TL configuration of Fig 4.
// The load estimator still runs so rho stays observable.
type FixedTS struct {
	base
}

// NewFixedTS builds the fixed policy: every thread sleeps VBar.
func NewFixedTS(cfg Config) *FixedTS {
	p := &FixedTS{}
	p.base.init(cfg)
	for q := range p.ts {
		p.ts[q].Store(p.cfg.VBar)
	}
	return p
}

// Name implements Policy.
func (p *FixedTS) Name() string { return NameFixed }

// ObserveCycle implements Policy: the estimate updates, the timeout does
// not.
func (p *FixedTS) ObserveCycle(q int, busy, vacation float64) float64 {
	p.est.Observe(q, busy, vacation)
	return p.TS(q)
}
