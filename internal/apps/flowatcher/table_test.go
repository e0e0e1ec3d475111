package flowatcher

import (
	"testing"

	"metronome/internal/packet"
	"metronome/internal/xrand"
)

// sameHashKeys returns n distinct keys that hash identically under s — same
// home slot at every index size, same tag. The first multiply fold takes
// (Src,Dst)^s.a as a factor, so the address pair that cancels s.a zeroes the
// product whatever the ports are. Only a holder of the seed can name that
// pair, which is why the seed is random per monitor.
func sameHashKeys(t *testing.T, s seed, n int) []packet.FlowKey {
	t.Helper()
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = packet.FlowKey{
			Src: packet.Addr(s.a >> 32), Dst: packet.Addr(s.a),
			SrcPort: uint16(i), DstPort: uint16(i >> 16), Proto: packet.ProtoUDP,
		}
		if s.hash(keys[i]) != s.hash(keys[0]) {
			t.Fatalf("key %d no longer collides with key 0: the hash changed, pick the colliders another way", i)
		}
	}
	return keys
}

// sameHomeKeys returns n random keys whose hashes agree in the low `bits`
// bits — one home slot in any index of up to 1<<bits slots — and differ in
// the tag.
func sameHomeKeys(s seed, rng *xrand.Rand, n int, bits uint) []packet.FlowKey {
	mask := uint64(1)<<bits - 1
	var keys []packet.FlowKey
	var home uint64
	for len(keys) < n {
		k := randKey(rng)
		switch h := s.hash(k); {
		case len(keys) == 0:
			home = h & mask
			keys = append(keys, k)
		case h&mask == home:
			keys = append(keys, k)
		}
	}
	return keys
}

func randKey(rng *xrand.Rand) packet.FlowKey {
	return packet.FlowKey{
		Src: packet.Addr(rng.Uint64()), Dst: packet.Addr(rng.Uint64()),
		SrcPort: uint16(rng.Uint64()), DstPort: uint16(rng.Uint64()),
		Proto: uint8(rng.Uint64()),
	}
}

// The index against a reference map: a seeded random mix of get (create or
// update) and Flow (hit or miss) over a key universe that pushes the table
// through four doublings and holds two adversarial groups — keys with one
// full hash (one chain, equal tags: only the key compare tells them apart)
// and keys with one home slot. The table's seed is random, as in production.
func TestFlowTableAgainstModel(t *testing.T) {
	for _, rseed := range []uint64{1, 2, 3} {
		rng := xrand.New(rseed)
		tab := newFlowTable(newSeed())
		universe := sameHashKeys(t, tab.seed, 40)
		universe = append(universe, sameHomeKeys(tab.seed, rng, 24, 14)...)
		for len(universe) < 6000 {
			universe = append(universe, randKey(rng))
		}
		model := make(map[packet.FlowKey]FlowStats)
		var order []packet.FlowKey // first-seen order, which Range promises
		startSize := len(tab.idx)

		check := func() {
			t.Helper()
			if tab.Len() != len(model) {
				t.Fatalf("len = %d, model has %d", tab.Len(), len(model))
			}
			for _, k := range universe {
				fs, ok := tab.Flow(k)
				want, inModel := model[k]
				if ok != inModel {
					t.Fatalf("flow %v: present = %v, model says %v", k, ok, inModel)
				}
				if ok && *fs != want {
					t.Fatalf("flow %v: %+v, model has %+v", k, *fs, want)
				}
			}
			i := 0
			tab.Range(func(k packet.FlowKey, fs *FlowStats) bool {
				if i >= len(order) || k != order[i] {
					t.Fatalf("range position %d: %v, want first-seen order", i, k)
				}
				if *fs != model[k] {
					t.Fatalf("range flow %v: %+v, model has %+v", k, *fs, model[k])
				}
				i++
				return true
			})
			if i != len(order) {
				t.Fatalf("range visited %d flows, want %d", i, len(order))
			}
		}

		for op := 0; op < 40000; op++ {
			k := universe[rng.Intn(len(universe))]
			if rng.Intn(10) < 3 {
				fs, ok := tab.Flow(k)
				want, inModel := model[k]
				if ok != inModel || (ok && *fs != want) {
					t.Fatalf("op %d: Flow(%v) = %v, %v; model %+v, %v", op, k, fs, ok, want, inModel)
				}
				continue
			}
			size := 64 + rng.Intn(1400)
			fs, isNew := tab.get(k, tab.seed.hash(k))
			want, inModel := model[k]
			if isNew == inModel {
				t.Fatalf("op %d: get(%v) isNew = %v, model has it: %v", op, k, isNew, inModel)
			}
			if isNew {
				order = append(order, k)
				if *fs != (FlowStats{}) {
					t.Fatalf("op %d: new flow not zeroed: %+v", op, *fs)
				}
			}
			fs.Packets++
			fs.Bytes += int64(size)
			fs.MaxSize = size
			want.Packets++
			want.Bytes += int64(size)
			want.MaxSize = size
			model[k] = want
			if op%10000 == 0 {
				check()
			}
		}
		check()
		if grown := len(tab.idx) / startSize; grown < 8 {
			t.Fatalf("index grew %dx, want >= 3 doublings", grown)
		}
		if 2*tab.Len() > len(tab.idx) {
			t.Fatalf("index over half full: %d flows in %d slots", tab.Len(), len(tab.idx))
		}

		// Range stops when told to.
		visited := 0
		tab.Range(func(packet.FlowKey, *FlowStats) bool { visited++; return visited < 5 })
		if visited != 5 {
			t.Fatalf("range visited %d flows after being stopped at 5", visited)
		}
	}
}

// Seeds are per logical monitor: two monitors differ, the shards of one
// Sharded agree (its merge hashes each key once for all of them).
func TestSeedPerMonitor(t *testing.T) {
	if a, b := New(), New(); a.table.seed == b.table.seed {
		t.Fatal("two monitors drew the same hash seed")
	}
	s := NewSharded(3)
	for q := 0; q < s.Shards(); q++ {
		m := s.Shard(q)
		if m.table.seed != s.seed || m.Sketch.seed != s.seed {
			t.Fatalf("shard %d hashes under its own seed", q)
		}
	}
	if m := New(); m.Sketch.seed != m.table.seed {
		t.Fatal("a monitor's sketch and table hash under different seeds")
	}
}
