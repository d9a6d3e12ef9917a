package ftl

import (
	"slices"
	"testing"

	"emmcio/internal/rng"
)

// TestFwdTableMatchesMap drives the forward table against a plain map
// across more than two leaf chunks: set, clear, re-set and get in random
// order, then pairs() order, lookups past the directory, and a
// reserve-then-refill copy.
func TestFwdTableMatchesMap(t *testing.T) {
	r := rng.New(19)
	var tab fwdTable
	ref := map[int64]Loc{}
	// Leaves are added in random directory order, so leaf and directory
	// indices disagree.
	const span = (2*chunkLeaves + 300) << leafShift
	for i := 0; i < 12*chunkLeaves; i++ {
		lpn := r.Int63N(span)
		switch r.IntN(4) {
		case 0, 1:
			loc := Loc{Plane: int32(r.IntN(8)), Pool: int32(r.IntN(2)), Block: int32(r.IntN(1 << 20)), Page: int32(r.IntN(1024))}
			tab.set(lpn, loc)
			ref[lpn] = loc
		case 2:
			loc, ok := tab.clear(lpn)
			want, wantOK := ref[lpn]
			if ok != wantOK || loc != want {
				t.Fatalf("clear(%d) = %+v/%v, want %+v/%v", lpn, loc, ok, want, wantOK)
			}
			delete(ref, lpn)
		default:
			want, ok := ref[lpn]
			got := tab.get(lpn)
			if (got&mappedBit != 0) != ok || ok && unpack(got) != want {
				t.Fatalf("get(%d) = %#x, want %+v/%v", lpn, got, want, ok)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("table counts %d mappings, reference %d", tab.n, len(ref))
		}
	}
	if len(tab.chunks) <= 2 {
		t.Fatalf("table spans %d leaf chunks, want more than 2", len(tab.chunks))
	}

	// pairs() lists every mapping in ascending LPN order.
	keys := make([]int64, 0, len(ref))
	for lpn := range ref {
		keys = append(keys, lpn)
	}
	slices.Sort(keys)
	pairs := tab.pairs()
	if len(pairs) != len(keys) {
		t.Fatalf("pairs() has %d entries, want %d", len(pairs), len(keys))
	}
	for i, p := range pairs {
		if p.LPN != keys[i] || p.Loc != ref[keys[i]] {
			t.Fatalf("pairs()[%d] = %+v, want {%d %+v}", i, p, keys[i], ref[keys[i]])
		}
	}

	// Every leaf lists its own directory slot.
	for li := range tab.leaves {
		if d, _ := tab.leaf(li); tab.dir[d] != int32(li+1) {
			t.Fatalf("leaf %d claims directory slot %d, which points at leaf %d", li, d, tab.dir[d]-1)
		}
	}

	// Nothing is mapped outside the directory, and clearing there is a no-op.
	for _, lpn := range []int64{-1, int64(len(tab.dir)) << leafShift, MaxLPN - 1} {
		if tab.get(lpn) != 0 {
			t.Fatalf("get(%d) past the directory = %#x, want 0", lpn, tab.get(lpn))
		}
		if _, ok := tab.clear(lpn); ok {
			t.Fatalf("clear(%d) past the directory reported a mapping", lpn)
		}
	}

	// A reserved table refilled from pairs() matches without regrowing.
	var u fwdTable
	maxDir, leaves := int64(-1), 0
	for i, p := range pairs {
		if d := p.LPN >> leafShift; i == 0 || d != pairs[i-1].LPN>>leafShift {
			leaves, maxDir = leaves+1, d
		}
	}
	u.reserve(int(maxDir), leaves)
	dirCap, chunkCap := cap(u.dir), cap(u.chunks)
	for _, p := range pairs {
		u.set(p.LPN, p.Loc)
	}
	if cap(u.dir) != dirCap || cap(u.chunks) != chunkCap {
		t.Fatalf("refill regrew the table: dir cap %d -> %d, chunk cap %d -> %d", dirCap, cap(u.dir), chunkCap, cap(u.chunks))
	}
	if u.n != tab.n || !slices.Equal(u.pairs(), pairs) {
		t.Fatal("reserved refill differs from the source table")
	}
}
