// Package l3fwd reimplements DPDK's L3 Forwarding sample application in its
// longest-prefix-match flavour (the computation-heavier of its two modes,
// which is the one the paper evaluates): an LPM table, MAC rewriting, TTL
// decrement with incremental checksum update.
//
// The table is a 16-8-8 multibit trie, not rte_lpm's DIR-24-8: a direct
// 64 Ki-entry root indexed by the top 16 address bits plus 256-entry groups
// allocated on demand for longer prefixes. An empty table is 192 KiB and
// grows by 768 B per group, so it stays cache-resident and costs O(routes)
// memory where DIR-24-8's flat 2^24-entry first level costs 48 MiB with
// depths and a TLB miss per random lookup.
package l3fwd

import (
	"errors"

	"metronome/internal/packet"
)

// Trie geometry and entry encoding (the entry bits are rte_lpm's).
const (
	rootSize  = 1 << 16 // root entries: one per /16
	groupSize = 256     // entries per group: 8 more address bits
	maxGroups = 1 << 14 // what an entry's value bits can address

	flagValid = 1 << 15 // entry holds a route (or a group index)
	flagExt   = 1 << 14 // entry points to a group one level down
	valueMask = flagExt - 1
)

var (
	ErrBadPrefix   = errors.New("l3fwd: prefix length must be 0..32")
	ErrNoTbl8      = errors.New("l3fwd: out of tbl8 groups")
	ErrHopTooLarge = errors.New("l3fwd: next hop exceeds 14 bits")
)

// LPM is a longest-prefix-match table over IPv4: a 16-8-8 multibit trie
// with every prefix expanded onto the entries it covers, so a lookup is one
// load for destinations whose best route is a /16 or shorter, two up to
// /24, three at most.
type LPM struct {
	// tbl holds the root (entries [0, rootSize)) followed by the groups;
	// depth is the prefix length that wrote each route entry, which is what
	// keeps a shorter prefix from overwriting a longer one whatever the
	// insertion order.
	tbl   []uint16
	depth []uint8
}

// NewLPM allocates an empty table: the root and no groups.
func NewLPM() *LPM {
	return &LPM{tbl: make([]uint16, rootSize), depth: make([]uint8, rootSize)}
}

func mask(length int) packet.Addr {
	if length == 0 {
		return 0
	}
	return packet.Addr(^uint32(0) << (32 - uint(length)))
}

// Add installs prefix/length -> hop, replacing any identical rule. It
// returns ErrNoTbl8, and installs nothing, when the rule needs a group and
// all maxGroups are in use.
func (l *LPM) Add(prefix packet.Addr, length int, hop uint16) error {
	if length < 0 || length > 32 {
		return ErrBadPrefix
	}
	if hop > valueMask {
		return ErrHopTooLarge
	}
	return l.install(prefix&mask(length), length, hop)
}

// groupBase returns the index in tbl of the first entry of the group an
// extended entry points to.
func groupBase(e uint16) int { return rootSize + int(e&valueMask)*groupSize }

// install writes a rule into the trie without touching deeper (more
// specific) existing entries: it walks down to the node that resolves the
// prefix length, creating the groups on the way, and expands the prefix
// over the entries it covers there.
func (l *LPM) install(prefix packet.Addr, length int, hop uint16) error {
	ip := uint32(prefix)
	levels := 0 // groups between the root and that node
	if length > 16 {
		levels = (length - 9) / 8
	}
	// Follow the groups that exist; the rest of the way has to be created,
	// and a rule that does not fit must leave the table untouched.
	missing, e := levels, l.tbl[ip>>16]
	for shift := 8; missing > 0 && e&flagExt != 0; missing, shift = missing-1, shift-8 {
		e = l.tbl[groupBase(e)+int(ip>>uint(shift)&0xff)]
	}
	if l.groups()+missing > maxGroups {
		return ErrNoTbl8
	}

	i := int(ip >> 16)
	for shift := 8; shift > 8-8*levels; shift -= 8 {
		if l.tbl[i]&flagExt == 0 {
			g := l.newGroup(l.tbl[i], l.depth[i]) // may move tbl: finish before indexing it
			l.tbl[i] = flagValid | flagExt | g
		}
		i = groupBase(l.tbl[i]) + int(ip>>uint(shift)&0xff)
	}
	l.fill(i, 1<<uint(16+8*levels-length), uint8(length), hop)
	return nil
}

// groups returns the number of groups allocated.
func (l *LPM) groups() int { return (len(l.tbl) - rootSize) / groupSize }

// newGroup appends a group whose entries all repeat the route entry (and
// depth) it is about to replace, and returns its index.
func (l *LPM) newGroup(seed uint16, seedDepth uint8) uint16 {
	g := l.groups()
	for i := 0; i < groupSize; i++ {
		l.tbl = append(l.tbl, seed)
		l.depth = append(l.depth, seedDepth)
	}
	return uint16(g)
}

// fill writes hop at prefix length depth over count entries from first,
// into every group below them too, wherever the route there is not more
// specific than depth.
func (l *LPM) fill(first, count int, depth uint8, hop uint16) {
	for i := first; i < first+count; i++ {
		switch e := l.tbl[i]; {
		case e&flagExt != 0:
			l.fill(groupBase(e), groupSize, depth, hop)
		case e&flagValid == 0 || l.depth[i] <= depth:
			l.tbl[i] = flagValid | hop
			l.depth[i] = depth
		}
	}
}

// Lookup resolves the next hop for ip with at most three dependent loads.
func (l *LPM) Lookup(ip packet.Addr) (uint16, bool) {
	e := l.tbl[uint32(ip)>>16]
	if e&flagExt != 0 {
		e = l.tbl[groupBase(e)+int(uint32(ip)>>8&0xff)]
		if e&flagExt != 0 {
			e = l.tbl[groupBase(e)+int(ip&0xff)]
		}
	}
	return e & valueMask, e&flagValid != 0
}
