package ftl

import (
	"errors"
	"fmt"
)

// MaxLPN bounds the logical address space. The eMMC addresses 512-byte
// sectors with a 32-bit argument (LBA < 2^32, the limit mmc.Encode
// enforces), which is 2^29 4 KB LPNs: 2 TiB.
const MaxLPN = 1 << 29

// ErrOutOfRange marks an LPN outside [0, MaxLPN). Devices reject such a
// request at submit time, before touching any state; callers classify with
// errors.Is.
var ErrOutOfRange = errors.New("ftl: LPN out of range")

// CheckRange reports whether the n LPNs starting at lpn all lie inside
// [0, MaxLPN), wrapping ErrOutOfRange when they do not.
func CheckRange(lpn int64, n int) error {
	if lpn < 0 || n < 0 || lpn > MaxLPN-int64(n) {
		return fmt.Errorf("%w: LPNs %d..%d leave the 2 TiB address space [0, %d)", ErrOutOfRange, lpn, lpn+int64(n)-1, MaxLPN)
	}
	return nil
}

// The forward map is a two-level table over the LPN space: dir[lpn>>5]
// holds 1 + the global index of a 32-entry leaf (0: no leaf yet), and each
// leaf entry is a packed Loc with mappedBit set while the LPN is mapped.
// Leaves stay small because live LPNs are sparse over the address space;
// the directory costs 4 bytes per 128 KiB of address space up to the
// highest LPN ever written. Leaves live in fixed chunks of chunkLeaves, so
// adding one never copies the leaves before it.
const (
	leafShift  = 5
	leafSize   = 1 << leafShift
	leafMask   = leafSize - 1
	chunkShift = 10
	// chunkLeaves leaves (256 KiB of entries) make one allocation.
	chunkLeaves = 1 << chunkShift
	chunkMask   = chunkLeaves - 1
	mappedBit   = 1 << 63
)

// fwdChunk holds chunkLeaves consecutive leaves and, for each, the
// directory index that owns it, so a full scan can walk the leaves alone.
type fwdChunk struct {
	entries [chunkLeaves << leafShift]uint64
	owner   [chunkLeaves]int32
}

type fwdTable struct {
	dir    []int32
	chunks []*fwdChunk
	// leaves counts the leaves in use, filling the chunks in order.
	leaves int
	// n counts mapped LPNs.
	n int
}

// slot returns the global index of lpn's entry, or -1 when its leaf does
// not exist (negative LPNs and LPNs past the directory included).
func (t *fwdTable) slot(lpn int64) int {
	d := uint64(lpn) >> leafShift
	if d >= uint64(len(t.dir)) || t.dir[d] == 0 {
		return -1
	}
	return int(t.dir[d]-1)<<leafShift | int(lpn&leafMask)
}

// entry returns the entry at global index i (leaf i>>leafShift).
func (t *fwdTable) entry(i int) *uint64 {
	return &t.chunks[i>>(chunkShift+leafShift)].entries[i&(chunkLeaves<<leafShift-1)]
}

// leaf returns leaf li's directory index and entries.
func (t *fwdTable) leaf(li int) (int32, *[leafSize]uint64) {
	c := t.chunks[li>>chunkShift]
	k := li & chunkMask
	return c.owner[k], (*[leafSize]uint64)(c.entries[k<<leafShift:])
}

// get returns lpn's entry, 0 when it has none.
func (t *fwdTable) get(lpn int64) uint64 {
	if i := t.slot(lpn); i >= 0 {
		return *t.entry(i)
	}
	return 0
}

// set maps lpn (which must lie in [0, MaxLPN)) to loc, adding its leaf if
// needed. The directory grows amortised, by doubling: re-allocating it per
// new leaf makes a run of ascending LPNs quadratic.
func (t *fwdTable) set(lpn int64, loc Loc) {
	d := int(lpn >> leafShift)
	if d >= len(t.dir) {
		if d >= cap(t.dir) {
			grown := make([]int32, len(t.dir), max(2*cap(t.dir), d+1))
			copy(grown, t.dir)
			t.dir = grown
		}
		t.dir = t.dir[:d+1]
	}
	if t.dir[d] == 0 {
		li := t.leaves
		if li>>chunkShift == len(t.chunks) {
			t.chunks = append(t.chunks, new(fwdChunk))
		}
		t.chunks[li>>chunkShift].owner[li&chunkMask] = int32(d)
		t.leaves++
		t.dir[d] = int32(t.leaves)
	}
	e := t.entry(int(t.dir[d]-1)<<leafShift | int(lpn&leafMask))
	if *e&mappedBit == 0 {
		t.n++
	}
	*e = loc.pack() | mappedBit
}

// clear unmaps lpn, returning where it was mapped.
func (t *fwdTable) clear(lpn int64) (Loc, bool) {
	i := t.slot(lpn)
	if i < 0 {
		return Loc{}, false
	}
	e := t.entry(i)
	if *e&mappedBit == 0 {
		return Loc{}, false
	}
	loc := unpack(*e)
	*e = 0
	t.n--
	return loc, true
}
