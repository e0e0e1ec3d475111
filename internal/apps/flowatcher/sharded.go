package flowatcher

import (
	"math"

	"metronome/internal/apps"
	"metronome/internal/packet"
)

// Sharded is the multi-queue FloWatcher: one private Monitor per Rx queue,
// in the map-per-worker + final-merge shape. Shard q is fed exclusively by
// queue q's service path — Toeplitz RSS partitions flows across queues and
// Metronome's per-queue trylock serialises each queue's drains, so the
// shards need no locks and never false-share — and the reporting side
// (TopK, Flow, FlowCount) merges the shards at read time with exact
// counters. Flows that do land in several shards (non-RSS feeds) are summed
// correctly during the merge.
//
// Writers and readers are not synchronised: merge-time reads are exact once
// the writers are quiescent (end of run, or a barrier), which is the
// FloWatcher reporting model — counters tally continuously, reports are
// pulled.
type Sharded struct {
	shards []*Monitor
	seed   seed   // shared by every shard: the merge hashes a key once
	top    topSel // reusable merged-TopK selection buffer
}

// NewSharded builds n independent shards (one per Rx queue).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Monitor, n), seed: newSeed()}
	for i := range s.shards {
		s.shards[i] = newMonitor(s.seed)
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns queue q's private monitor — the value handed to the queue's
// service path (runtime.NewProc takes one BurstProcessor per queue).
func (s *Sharded) Shard(q int) *Monitor { return s.shards[q] }

// Packets sums the accepted-packet counters across shards.
func (s *Sharded) Packets() int64 {
	var n int64
	for _, m := range s.shards {
		n += m.Packets
	}
	return n
}

// Malformed sums the malformed counters across shards.
func (s *Sharded) Malformed() int64 {
	var n int64
	for _, m := range s.shards {
		n += m.Malformed
	}
	return n
}

// FlowCount returns the number of distinct flows across all shards (keys
// present in several shards count once).
func (s *Sharded) FlowCount() int {
	n := 0
	for i, m := range s.shards {
		m.table.Range(func(k packet.FlowKey, _ *FlowStats) bool {
			if !s.seenBefore(i, k, s.seed.hash(k)) {
				n++
			}
			return true
		})
	}
	return n
}

// seenBefore reports whether k (h = s.seed.hash(k)) exists in a shard with
// index < i — the dedup rule of the read-time merge (the lowest-index shard
// owns the key).
func (s *Sharded) seenBefore(i int, k packet.FlowKey, h uint64) bool {
	for j := 0; j < i; j++ {
		if _, ok := s.shards[j].table.lookup(k, h); ok {
			return true
		}
	}
	return false
}

// Flow merges flow k across shards at read time: packet/byte sums, the
// earliest FirstSeen, the latest LastSeen and the size envelope.
func (s *Sharded) Flow(k packet.FlowKey) (FlowStats, bool) {
	var out FlowStats
	found := false
	h := s.seed.hash(k)
	for _, m := range s.shards {
		fs, ok := m.table.lookup(k, h)
		if !ok {
			continue
		}
		if !found {
			out, found = *fs, true
			continue
		}
		out.merge(fs)
	}
	return out, found
}

// Estimate sums the per-shard sketch estimates: each shard's estimate never
// undercounts its own packets, so the sum never undercounts the flow. Like
// the counters it sums, it saturates at math.MaxUint32 instead of wrapping.
func (s *Sharded) Estimate(k packet.FlowKey) uint32 {
	h := s.seed.hash(k)
	var est uint64
	for _, m := range s.shards {
		est += uint64(m.Sketch.estimate(h))
	}
	if est > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(est)
}

// TopK returns the k busiest flows by merged exact packet count,
// descending, ties broken by ascending key — the read-time merge step over
// the shards, reusing the same bounded selection heap as Monitor.TopK.
func (s *Sharded) TopK(k int) []packet.FlowKey {
	s.top.reset(k)
	for i, m := range s.shards {
		i := i
		m.table.Range(func(key packet.FlowKey, fs *FlowStats) bool {
			h := s.seed.hash(key)
			if s.seenBefore(i, key, h) {
				return true // a lower shard already offered the merged count
			}
			pk := fs.Packets
			for j := i + 1; j < len(s.shards); j++ {
				if other, ok := s.shards[j].table.lookup(key, h); ok {
					pk += other.Packets
				}
			}
			s.top.offer(flowRef{key: key, packets: pk})
			return true
		})
	}
	refs := s.top.sorted()
	out := make([]packet.FlowKey, len(refs))
	for i, r := range refs {
		out[i] = r.key
	}
	return out
}

// Procs adapts the shards to runtime.NewProc's per-queue processor slice.
func (s *Sharded) Procs() []apps.BurstProcessor {
	out := make([]apps.BurstProcessor, len(s.shards))
	for i, m := range s.shards {
		out[i] = m
	}
	return out
}
