package nand

import (
	"math/bits"

	"emmcio/internal/ftl"
)

// lpnSet is the stage's staged-sector index: a set of LPNs in one
// open-addressing table with linear probing. A slot holds lpn+1, so the
// zero value is an empty slot and a fresh table needs no initialisation;
// LPNs lie in [0, ftl.MaxLPN), which fits a uint32 with room for the +1.
// Deletion shifts the rest of the probe run back instead of leaving
// tombstones, so lookups never slow down as sectors come and go.
//
// The zero lpnSet is an empty set with no table: the first add allocates
// the smallest one, and add doubles it as the set fills, so the table
// follows the sectors actually staged, never the stage's configured size.
type lpnSet struct {
	slots []uint32
	// shift turns a 32-bit hash into a slot index (32 - log2 len(slots)).
	shift uint
	n     int
}

// lpnSetMinSlots is the smallest table; add keeps every table at most
// half full, so probe runs stay short.
const lpnSetMinSlots = 16

// resize replaces the table with an empty one of the given power-of-two
// size and reinserts every LPN the old one held.
func (s *lpnSet) resize(slots int) {
	old := s.slots
	s.slots = make([]uint32, slots)
	s.shift = uint(33 - bits.Len(uint(slots)))
	s.n = 0
	for _, v := range old {
		if v != 0 {
			s.add(int64(v - 1))
		}
	}
}

// home returns the slot an LPN's probe run starts at: Fibonacci hashing,
// so the runs of consecutive LPNs a sequential write stages spread over
// the table instead of forming one long cluster.
func (s *lpnSet) home(v uint32) int { return int((v * 0x9E3779B9) >> s.shift) }

// find returns the slot holding lpn, or the empty slot ending its probe
// run and false. A set without a table holds nothing.
func (s *lpnSet) find(lpn int64) (int, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	v := uint32(lpn) + 1
	mask := len(s.slots) - 1
	for i := s.home(v); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case v:
			return i, true
		case 0:
			return i, false
		}
	}
}

// has reports whether lpn is in the set.
func (s *lpnSet) has(lpn int64) bool {
	_, ok := s.find(lpn)
	return ok
}

// add inserts lpn (in [0, ftl.MaxLPN)); adding a member is a no-op.
func (s *lpnSet) add(lpn int64) {
	if uint64(lpn) >= ftl.MaxLPN {
		panic("nand: staged LPN outside the address space")
	}
	i, ok := s.find(lpn)
	if ok {
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.resize(max(2*len(s.slots), lpnSetMinSlots))
		i, _ = s.find(lpn)
	}
	s.slots[i] = uint32(lpn) + 1
	s.n++
}

// remove deletes lpn if present. Each later entry of the probe run moves
// back into the hole unless its home lies cyclically after the hole, where
// the move would put it before the start of its own run.
func (s *lpnSet) remove(lpn int64) {
	hole, ok := s.find(lpn)
	if !ok {
		return
	}
	mask := len(s.slots) - 1
	for j := (hole + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole when its home is not in the
		// cyclic interval (hole, j].
		if h := s.home(s.slots[j]); (j-h)&mask >= (j-hole)&mask {
			s.slots[hole] = s.slots[j]
			hole = j
		}
	}
	s.slots[hole] = 0
	s.n--
}
