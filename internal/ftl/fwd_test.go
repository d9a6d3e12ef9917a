package ftl

import (
	"testing"

	"emmcio/internal/rng"
)

// TestFwdTableMatchesMap drives the forward table against a plain map
// across more than two leaf chunks: set, clear, re-set and get in random
// order, then every mapping and lookups past the directory.
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

	// Every reference mapping resolves.
	for lpn, want := range ref {
		if got := tab.get(lpn); got&mappedBit == 0 || unpack(got) != want {
			t.Fatalf("get(%d) = %#x, want %+v", lpn, got, want)
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
}
