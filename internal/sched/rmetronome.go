package sched

import (
	"math"
	"sync/atomic"

	"metronome/internal/model"
	"metronome/internal/telemetry"
)

// NameRMetronome selects the shared-queue service-group discipline with
// uniform backup re-targeting.
const NameRMetronome = "rmetronome"

// NameWorkSteal selects the shared-queue discipline with work-stealing
// backup selection: a lost-race thread scans sibling queues by observed
// occupancy instead of picking uniformly at random.
const NameWorkSteal = "worksteal"

func init() {
	Register(NameRMetronome, func(cfg Config) Policy { return NewRMetronome(cfg, false) })
	Register(NameWorkSteal, func(cfg Config) Policy { return NewRMetronome(cfg, true) })
}

// RMetronome is the shared-queue r-Metronome discipline behind the paper's
// multi-queue evaluation (Sec. V, fig. 13-15): the M threads are
// partitioned into stable per-queue service groups of r = M/N members
// (remainder spread round-robin), and each queue carries a monotonic
// service-turn counter its members CAS-claim before contending the queue.
//
// Two things distinguish it from the plain adaptive discipline over N
// queues:
//
//   - Timeouts come from eq. (13) with the *integer* group size r_q rather
//     than eq. (14)'s real-valued average M/N, and the group actually holds
//     that size: a member that serves a foreign queue as backup returns
//     home afterwards, so the "r threads attend this queue" assumption the
//     timeout is derived from stays true instead of drifting.
//   - The CAS-claimed turn counter resolves sibling wake-up collisions on a
//     policy-owned cache line before the queue's trylock is touched: a
//     member whose claim fails has proof a sibling is already on the queue
//     this turn and goes straight to the backup path.
//
// The work-stealing variant changes only backup selection: instead of the
// Sec. IV-E uniform random pick it ranks sibling queues by observed
// occupancy and re-targets the busiest one, so backup capacity flows where
// service turns are being missed. With a telemetry bus attached the signal
// is the *live* queue occupancy (nic occupancy in the sim, ring Len in the
// live runtime), which reacts within one vacation; without a bus it falls
// back to the eq. (11) rho EWMA. Exact ties are broken uniformly at
// random, which makes the cold start degenerate to the uniform pick.
//
// The group layout (home queues, member ranks, group sizes) lives behind
// one atomic pointer, so the elastic control plane can swap in a new
// partition mid-run (SetTeamSize, SetPlacement) while live goroutines keep
// reading a consistent layout.
type RMetronome struct {
	base
	steal  bool
	layout atomic.Pointer[rmLayout]
	turns  []atomic.Uint64
	// bmean is a per-queue EWMA of observed busy periods — the rotation
	// clock the de-phasing law predicts releases with. Measured busy
	// periods beat eq. (3)'s B̂ = V̄·rho/(1-rho) here because the latter
	// assumes vacations already sit at target, which is exactly what is
	// not yet true for a member that just lost its slot.
	bmean []atomicF64
}

// rmLayout is one immutable r = M/N partition of the team.
type rmLayout struct {
	home []int // home[thread] = the thread's home queue (thread % N)
	rank []int // rank[thread] = the thread's position inside its group
	size []int // size[q] = r_q, members of queue q's service group
}

// buildLayout partitions m threads over n queues round-robin — the
// balanced layout SetTeamSize keeps publishing.
func buildLayout(m, n int) *rmLayout {
	if m < 1 {
		m = 1
	}
	return buildPlacedLayout(BalancedPlacement(m, n))
}

// buildPlacedLayout realises an arbitrary per-queue assignment: thread ids
// are dealt round-robin across the queues, skipping any queue whose group
// is already full, so a balanced sizes vector reproduces the legacy
// thread i -> queue i % n layout bit-for-bit and every layout is a pure
// function of the sizes vector (the sim twin and the live runtime derive
// identical homes from identical plans).
func buildPlacedLayout(sizes []int) *rmLayout {
	n := len(sizes)
	m := 0
	for _, s := range sizes {
		if s > 0 {
			m += s
		}
	}
	l := &rmLayout{
		home: make([]int, m),
		rank: make([]int, m),
		size: make([]int, n),
	}
	q := 0
	for i := 0; i < m; i++ {
		for l.size[q] >= sizes[q] {
			q = (q + 1) % n
		}
		l.home[i] = q
		l.rank[i] = l.size[q]
		l.size[q]++
		q = (q + 1) % n
	}
	return l
}

// NewRMetronome builds the shared-queue policy; steal selects the
// work-stealing backup discipline.
func NewRMetronome(cfg Config, steal bool) *RMetronome {
	p := &RMetronome{steal: steal}
	p.base.init(cfg)
	l := buildLayout(p.cfg.M, p.cfg.N)
	p.layout.Store(l)
	p.turns = make([]atomic.Uint64, p.cfg.N)
	p.bmean = make([]atomicF64, p.cfg.N)
	for q := range p.ts {
		p.ts[q].Store(p.evaluate(l, q, 0))
	}
	return p
}

// Name implements Policy.
func (p *RMetronome) Name() string {
	if p.steal {
		return NameWorkSteal
	}
	return NameRMetronome
}

// evaluate is eq. (13) for queue q's service group: r_q members each sleep
// this member timeout so the group holds the queue's mean vacation at VBar.
// A queue left without members (M < N) falls back to a single attendant.
func (p *RMetronome) evaluate(l *rmLayout, q int, rho float64) float64 {
	r := l.size[q]
	if r < 1 {
		r = 1
	}
	return model.TSForTarget(p.cfg.VBar, rho, r)
}

// ObserveCycle implements Policy.
func (p *RMetronome) ObserveCycle(q int, busy, vacation float64) float64 {
	ts := p.evaluate(p.layout.Load(), q, p.est.Observe(q, busy, vacation))
	p.ts[q].Store(ts)
	if p.cfg.Dephase {
		p.bmean[q].Store((1-Alpha)*p.bmean[q].Load() + Alpha*busy)
	}
	return ts
}

// SetTeamSize implements Policy as the degenerate balanced plan: swap
// in the r = M/N partition for the new team and republish every queue's
// eq. (13) member timeout at the current load estimate, so groups adopt
// their new size within one atomic pointer swap instead of one cycle per
// queue. Turn counters are per-queue (N is fixed) and survive the resize,
// keeping the rotation history.
func (p *RMetronome) SetTeamSize(m int) {
	p.base.SetTeamSize(m)
	p.publishLayout(buildLayout(p.TeamSize(), p.cfg.N))
}

// SetPlacement implements GroupPolicy: adopt an arbitrary per-queue group
// assignment (entries clamped to >= 1) in one atomic layout swap. Each
// group's eq. (13) member timeout republishes at its *new* integer size
// immediately — a queue that just gained members starts holding the
// vacation target with all of them, not one cycle later. Per-queue state
// that outlives a layout — the CAS service-turn counters and the busy-
// period EWMAs the de-phasing law predicts with — is untouched, so members
// re-home without dropping claimed turns or rotation history.
func (p *RMetronome) SetPlacement(sizes []int) {
	norm, total := NormalizePlacement(sizes, p.cfg.N)
	p.base.SetTeamSize(total)
	p.publishLayout(buildPlacedLayout(norm))
}

// Placement implements GroupPolicy.
func (p *RMetronome) Placement() []int {
	return append([]int(nil), p.layout.Load().size...)
}

// publishLayout swaps the layout in and republishes every queue's member
// timeout at the current load estimate.
func (p *RMetronome) publishLayout(l *rmLayout) {
	p.layout.Store(l)
	for q := range p.ts {
		p.ts[q].Store(p.evaluate(l, q, p.est.Rho(q)))
	}
}

// TL implements Policy: a group member that loses a race backs off one
// full rotation of queue q's service group — r_q member timeouts — not the
// configured long backup timeout. The paper's TL >> TS parks *redundant*
// threads (its single-queue team is M=3 over one queue, so at most one
// thread is ever needed); an eq. (13) group of r members is exactly
// provisioned — every member is a needed attendant — and exiling one for
// hundreds of microseconds leaves its home queue under-attended (both
// members of an r=2 group can end up exiled at once, abandoning the queue
// outright and overflowing even a 4096-descriptor ring). One rotation is
// the natural re-probe period: the sibling that won the race will have
// served and re-armed by then, and a visiting backup samples the foreign
// queue once per rotation instead of racing its whole group every turn.
func (p *RMetronome) TL(q int) float64 {
	r := p.layout.Load().size[q]
	if r < 1 {
		r = 1
	}
	return float64(r) * p.TS(q)
}

// HomeQueue implements GroupPolicy.
func (p *RMetronome) HomeQueue(thread int) int {
	l := p.layout.Load()
	return l.home[thread%len(l.home)]
}

// GroupSize implements GroupPolicy.
func (p *RMetronome) GroupSize(q int) int { return p.layout.Load().size[q] }

// ClaimTurn implements GroupPolicy: one CAS on queue q's turn counter. In
// the live runtime the claim is the admission filter ahead of the queue
// trylock — a failed CAS proves a sibling claimed a turn concurrently. The
// sequential sim twin can never lose the CAS; there the counter is pure
// turn accounting.
func (p *RMetronome) ClaimTurn(q int) bool {
	t := p.turns[q].Load()
	return p.turns[q].CompareAndSwap(t, t+1)
}

// Turns implements GroupPolicy.
func (p *RMetronome) Turns(q int) uint64 { return p.turns[q].Load() }

// Dephase implements GroupPolicy: turn-aware wake de-phasing of *colliding*
// group members. The 20-50% busy-try rate the shared-queue family pays at
// load is not phase clustering alone: a wake drawn anywhere in the cycle
// lands inside the sibling's ongoing service period with probability ~rho,
// so jittering the release-path TS sleeps buys nothing (measured: ±0.5 pp)
// — and re-scheduling them against a predicted rotation loses the
// vacation target, because timer-only prediction error compounds over the
// d-turn horizon while the winner's eq. (13) feedback loop is what holds
// V̄ in the first place. What does work is re-phasing exactly the members
// the rotation has proven out of phase: a lost race at service-dominated
// load (rho >= 0.45). Such a member woke inside a service the turn
// counter T has already claimed; instead of backing off a blind full
// rotation r·TS it re-enters on the rotation clock,
//
//	B̄/2 + V̄ + d·(V̄ + B̄),   d = (rank - T) mod r,
//
// riding out the in-progress service's expected residual (B̄ is an EWMA
// of observed busy periods), then waiting its rotation distance d so it
// wakes one vacation target after its predecessor's predicted release.
// Winners keep sleeping the eq. (13) timeout, so the V̄ feedback loop is
// untouched. Measured on the fig13-15 panels: busy tries drop several
// points at rho >= 0.5 (up to ~8 pp at 30 Mpps over 2 queues) and
// realized vacations track the target *better*, because a re-phased
// backup stops missing its service slot.
func (p *RMetronome) Dephase(thread, q int, ts float64, backup bool) float64 {
	if !p.cfg.Dephase {
		return ts
	}
	l := p.layout.Load()
	if l.home[thread%len(l.home)] != q {
		return ts // foreign sleep: rank is meaningless off the home queue
	}
	r := l.size[q]
	if r <= 1 {
		return ts
	}
	if !backup {
		return ts
	}
	// The stagger pays when rotations are service-dominated: below
	// rho ~0.45 the stock one-rotation backoff (r·TS) already lands in a
	// vacancy, and scheduling against a mostly-idle rotation only adds
	// prediction noise.
	if p.est.Rho(q) < 0.45 {
		return ts
	}
	k := l.rank[thread%len(l.rank)]
	d := (k - int(p.turns[q].Load()%uint64(r)) + r) % r
	bhat := p.bmean[q].Load()
	sleep := p.cfg.VBar + bhat/2 + float64(d)*(p.cfg.VBar+bhat)
	// Clamp to the eq. (13) envelope — anchored at the *member* timeout,
	// not the ts argument (on this path ts is the rotation backoff r·TS):
	// no poll-storm below a quarter member timeout, no abandonment beyond
	// two rotations.
	mts := p.TS(q)
	if min := 0.25 * mts; sleep < min {
		sleep = min
	}
	if max := 2 * float64(r) * mts; sleep > max {
		sleep = max
	}
	return sleep
}

// PickBackupQueue implements Policy. The uniform variant keeps the base
// Sec. IV-E behaviour; the work-stealing variant scans sibling queues for
// the highest observed occupancy — live telemetry when a bus is attached,
// the rho EWMA otherwise.
func (p *RMetronome) PickBackupQueue(cur int, rng Rand) int {
	if !p.steal || p.cfg.N <= 1 || p.cfg.BackupSticky {
		return p.base.PickBackupQueue(cur, rng)
	}
	best, bestScore, ties := cur, math.Inf(-1), 0
	for q := 0; q < p.cfg.N; q++ {
		if q == cur {
			continue
		}
		score := p.occupancyScore(q)
		switch {
		case score > bestScore:
			best, bestScore, ties = q, score, 1
		case score == bestScore:
			// Reservoir over exact ties: uniform among the tied maxima.
			ties++
			if rng.Intn(ties) == 0 {
				best = q
			}
		}
	}
	return best
}

// occupancyScore ranks queue q for stealing: published live occupancy when
// the telemetry bus is attached (reacts within a vacation), the rho EWMA
// otherwise (reacts within the EWMA horizon). The bus path tie-breaks
// equal occupancies by rho so a drained-but-loaded queue still outranks an
// idle one.
func (p *RMetronome) occupancyScore(q int) float64 {
	if p.cfg.Bus == nil {
		return p.est.Rho(q)
	}
	return p.cfg.Bus.Get(telemetry.Occupancy, q) + p.est.Rho(q)*1e-3
}
