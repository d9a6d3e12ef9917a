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
// holds 1 + the index of a 32-entry leaf in the leaves arena (0: no leaf
// yet), and each leaf entry is a packed Loc with mappedBit set while the
// LPN is mapped. Leaves stay small because live LPNs are sparse over the
// address space; the directory costs 4 bytes per 128 KiB of address space
// up to the highest LPN ever written.
const (
	leafShift = 5
	leafSize  = 1 << leafShift
	leafMask  = leafSize - 1
	mappedBit = 1 << 63
)

var emptyLeaf [leafSize]uint64

type fwdTable struct {
	dir    []int32
	leaves []uint64
	// owner[i] is the directory index of leaf i, so a full scan can walk
	// the leaves alone.
	owner []int32
	// n counts mapped LPNs.
	n int
}

// slot returns the index of lpn's entry in leaves, or -1 when its leaf
// does not exist (negative LPNs and LPNs past the directory included).
func (t *fwdTable) slot(lpn int64) int {
	d := uint64(lpn) >> leafShift
	if d >= uint64(len(t.dir)) || t.dir[d] == 0 {
		return -1
	}
	return int(t.dir[d]-1)<<leafShift | int(lpn&leafMask)
}

// get returns lpn's entry, 0 when it has none.
func (t *fwdTable) get(lpn int64) uint64 {
	if i := t.slot(lpn); i >= 0 {
		return t.leaves[i]
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
		t.leaves = append(t.leaves, emptyLeaf[:]...)
		t.owner = append(t.owner, int32(d))
		t.dir[d] = int32(len(t.owner))
	}
	e := &t.leaves[int(t.dir[d]-1)<<leafShift|int(lpn&leafMask)]
	if *e&mappedBit == 0 {
		t.n++
	}
	*e = loc.pack() | mappedBit
}

// reserve sizes an empty table to hold leaves leaves with the highest
// directory slot maxDir, so a restore fills it without regrowing.
func (t *fwdTable) reserve(maxDir, leaves int) {
	t.dir = make([]int32, 0, maxDir+1)
	t.leaves = make([]uint64, 0, leaves*leafSize)
	t.owner = make([]int32, 0, leaves)
}

// clear unmaps lpn, returning where it was mapped.
func (t *fwdTable) clear(lpn int64) (Loc, bool) {
	i := t.slot(lpn)
	if i < 0 || t.leaves[i]&mappedBit == 0 {
		return Loc{}, false
	}
	loc := unpack(t.leaves[i])
	t.leaves[i] = 0
	t.n--
	return loc, true
}

// pairs returns every mapping in ascending LPN order.
func (t *fwdTable) pairs() []fwdPair {
	out := make([]fwdPair, 0, t.n)
	for d, li := range t.dir {
		if li == 0 {
			continue
		}
		leaf := t.leaves[int(li-1)<<leafShift:][:leafSize]
		for i, e := range leaf {
			if e&mappedBit != 0 {
				out = append(out, fwdPair{LPN: int64(d)<<leafShift | int64(i), Loc: unpack(e)})
			}
		}
	}
	return out
}
