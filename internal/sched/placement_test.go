package sched

import (
	"math"
	"testing"

	"metronome/internal/model"
)

func TestBalancedPlacementMatchesLegacyRoundRobin(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{3, 1}, {4, 2}, {6, 3}, {7, 3}, {9, 4}, {2, 4}} {
		sizes := BalancedPlacement(tc.m, tc.n)
		want := make([]int, tc.n)
		for i := 0; i < tc.m; i++ {
			want[i%tc.n]++
		}
		for q := range want {
			if sizes[q] != want[q] {
				t.Fatalf("BalancedPlacement(%d,%d) = %v, want %v", tc.m, tc.n, sizes, want)
			}
		}
	}
}

// The placed layout must reduce to the legacy thread i -> queue i % n
// layout for balanced sizes — that identity is what keeps SetTeamSize the
// degenerate case of SetPlacement.
func TestPlacedLayoutBalancedIsLegacy(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{4, 2}, {6, 3}, {7, 3}, {9, 4}} {
		l := buildPlacedLayout(BalancedPlacement(tc.m, tc.n))
		for i := 0; i < tc.m; i++ {
			if l.home[i] != i%tc.n {
				t.Fatalf("m=%d n=%d: home[%d] = %d, want %d", tc.m, tc.n, i, l.home[i], i%tc.n)
			}
		}
	}
}

func TestPlacedLayoutArbitrarySizes(t *testing.T) {
	l := buildPlacedLayout([]int{3, 1, 2})
	wantHome := []int{0, 1, 2, 0, 2, 0}
	for i, w := range wantHome {
		if l.home[i] != w {
			t.Fatalf("home = %v, want %v", l.home, wantHome)
		}
	}
	if l.size[0] != 3 || l.size[1] != 1 || l.size[2] != 2 {
		t.Fatalf("size = %v", l.size)
	}
	// Ranks are dense per group.
	seen := map[int][]int{}
	for i := range wantHome {
		seen[l.home[i]] = append(seen[l.home[i]], l.rank[i])
	}
	for q, ranks := range seen {
		for want, got := range ranks {
			if got != want {
				t.Fatalf("queue %d ranks = %v, want dense 0..r-1", q, ranks)
			}
		}
	}
}

func TestRMetronomeSetPlacement(t *testing.T) {
	p := NewRMetronome(Config{VBar: 15e-6, TL: 500e-6, M: 6, N: 3}, false)
	p.SetPlacement([]int{1, 1, 4})
	if got := p.TeamSize(); got != 6 {
		t.Fatalf("team size %d after placement, want 6", got)
	}
	if got := p.Placement(); got[0] != 1 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("placement = %v", got)
	}
	if p.GroupSize(2) != 4 || p.GroupSize(0) != 1 {
		t.Fatalf("group sizes %d/%d/%d", p.GroupSize(0), p.GroupSize(1), p.GroupSize(2))
	}
	// eq. (13) republishes per group at its new integer size.
	for q, r := range []int{1, 1, 4} {
		want := float64(r) * 15e-6 // rho = 0 => TS = r * VBar
		if ts := p.TS(q); math.Abs(ts-want) > 1e-12 {
			t.Fatalf("queue %d TS = %v, want %v for r=%d", q, ts, want, r)
		}
	}
	// Entries clamp to >= 1 (Sec. IV-E).
	p.SetPlacement([]int{0, -3, 2})
	if got := p.Placement(); got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("clamped placement = %v", got)
	}
	if got := p.TeamSize(); got != 4 {
		t.Fatalf("clamped team size %d, want 4", got)
	}
}

// SetTeamSize must remain exactly SetPlacement(BalancedPlacement(m, n)).
func TestSetTeamSizeIsBalancedSetPlacement(t *testing.T) {
	a := NewRMetronome(Config{VBar: 15e-6, TL: 500e-6, M: 4, N: 2}, false)
	b := NewRMetronome(Config{VBar: 15e-6, TL: 500e-6, M: 4, N: 2}, false)
	for _, m := range []int{7, 3, 8, 2} {
		a.SetTeamSize(m)
		b.SetPlacement(BalancedPlacement(m, 2))
		for id := 0; id < m; id++ {
			if a.HomeQueue(id) != b.HomeQueue(id) {
				t.Fatalf("m=%d: home[%d] %d vs %d", m, id, a.HomeQueue(id), b.HomeQueue(id))
			}
		}
		for q := 0; q < 2; q++ {
			if a.GroupSize(q) != b.GroupSize(q) || a.TS(q) != b.TS(q) || a.TL(q) != b.TL(q) {
				t.Fatalf("m=%d q=%d: group/TS/TL diverge", m, q)
			}
		}
	}
}

// Rebalancing must not drop claimed service turns: the per-queue CAS
// counters live outside the layout and survive the swap.
func TestSetPlacementKeepsClaimedTurns(t *testing.T) {
	p := NewRMetronome(Config{VBar: 15e-6, TL: 500e-6, M: 6, N: 3}, false)
	for q := 0; q < 3; q++ {
		for k := 0; k <= q; k++ {
			if !p.ClaimTurn(q) {
				t.Fatalf("uncontended claim failed on queue %d", q)
			}
		}
	}
	p.SetPlacement([]int{4, 1, 1})
	for q := 0; q < 3; q++ {
		if got := p.Turns(q); got != uint64(q+1) {
			t.Fatalf("queue %d turns = %d after rebalance, want %d", q, got, q+1)
		}
	}
}

func TestUniformVacInvertsEq6(t *testing.T) {
	cfg := Config{VBar: 10e-6, TL: 500e-6, M: 3, N: 1}
	p := NewUniformVac(cfg)
	// The pinned timeout must reproduce VBar through the forward eq. (6),
	// at k = M/N = 3.
	if ev := model.EVHighLoad(p.TS(0), cfg.TL, 3); math.Abs(ev-cfg.VBar) > 1e-12 {
		t.Fatalf("E[V] at high load = %v, want %v", ev, cfg.VBar)
	}
	// No load adaptivity: heavy and idle cycles leave TS untouched.
	ts0 := p.TS(0)
	p.ObserveCycle(0, 200e-6, 2e-6)
	p.ObserveCycle(0, 0.1e-6, 900e-6)
	if p.TS(0) != ts0 {
		t.Fatalf("uniformvac TS moved with load: %v -> %v", ts0, p.TS(0))
	}
	if p.Rho(0) == 0 {
		t.Fatal("estimator should still observe cycles")
	}
	// Resizes re-invert for the new k = M/N.
	p.SetTeamSize(6)
	if p.TS(0) == ts0 {
		t.Fatal("TS did not re-evaluate on resize")
	}
	if ev := model.EVHighLoad(p.TS(0), cfg.TL, 6); math.Abs(ev-cfg.VBar) > 1e-12 {
		t.Fatalf("E[V] after resize = %v, want %v", ev, cfg.VBar)
	}
}

func TestUniformVacRegistered(t *testing.T) {
	p, err := New(NameUniformVac, Config{VBar: 10e-6, TL: 500e-6, M: 3, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != NameUniformVac {
		t.Fatalf("name %q", p.Name())
	}
	if p.SetTeamSize(6); p.TeamSize() != 6 {
		t.Fatalf("uniformvac resized to %d, want 6", p.TeamSize())
	}
}
