package ftl

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/rng"
)

// sparseLPNs returns the addresses the dense-table tests draw from: both
// ends of the address space, both sides of leaf boundaries, and a seeded
// spread over the rest.
func sparseLPNs(r *rng.Rand, n int) []int64 {
	out := []int64{0, 1, leafSize - 1, leafSize, leafSize + 1, 2*leafSize - 1, 9 * leafSize,
		MaxLPN/2 - 1, MaxLPN / 2, MaxLPN - leafSize - 1, MaxLPN - leafSize, MaxLPN - 2, MaxLPN - 1}
	for len(out) < n {
		out = append(out, r.Int63N(MaxLPN))
	}
	return out
}

func snapshotBytes(t *testing.T, f *FTL) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRoundTrip restores f's snapshot and checks the restored FTL
// re-snapshots to the same bytes and resolves every LPN the same way.
func checkRoundTrip(t *testing.T, f *FTL, lpns []int64) {
	t.Helper()
	a := snapshotBytes(t, f)
	g, err := RestoreSnapshot(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b := snapshotBytes(t, g); !bytes.Equal(a, b) {
		t.Fatalf("Snapshot -> Restore -> Snapshot changed the bytes (%d -> %d)", len(a), len(b))
	}
	for _, lpn := range lpns {
		la, oka := f.Lookup(lpn)
		lb, okb := g.Lookup(lpn)
		if la != lb || oka != okb {
			t.Fatalf("lpn %d resolves to %+v/%v after restore, %+v/%v before", lpn, lb, okb, la, oka)
		}
	}
}

// TestSparseDenseMappingRandomized drives the dense forward table and the
// reverse slabs with sparse LPNs across the whole address space, on two
// pools with faults on and GC firing, checking every invariant after every
// operation: duplicate and out-of-range writes are rejected without
// touching state, and Snapshot -> Restore -> Snapshot is byte-equal.
func TestSparseDenseMappingRandomized(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			f, err := New(smallConfig(
				flash.PoolSpec{PageBytes: 4096, BlocksPerPlane: 12, PagesPerBlock: 8},
				flash.PoolSpec{PageBytes: 8192, BlocksPerPlane: 10, PagesPerBlock: 8},
			))
			if err != nil {
				t.Fatal(err)
			}
			inj, err := faults.New(&faults.Config{Seed: seed, Rate: 1, ProgramFailBase: 0.005, EraseFailBase: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			f.SetFaults(inj)
			r := rng.New(seed)
			lpns := sparseLPNs(r, 28)
			mapped := map[int64]bool{}
			pick := func() int64 { return lpns[r.IntN(len(lpns))] }

			for op := 0; op < 700; op++ {
				plane := r.IntN(2)
				var werr error
				switch k := r.IntN(100); {
				case k < 45:
					x := pick()
					_, _, werr = f.Write(plane, 0, []int64{x})
					mapped[x] = werr == nil || mapped[x]
				case k < 80:
					x, y := pick(), pick()
					page := []int64{x, y}
					if x == y {
						page = page[:1]
					}
					_, _, werr = f.Write(plane, 1, page)
					if werr == nil {
						mapped[x], mapped[y] = true, true
					}
				case k < 85:
					x := pick()
					before, was := f.Lookup(x)
					stats := f.Stats()
					if _, _, err := f.Write(plane, 1, []int64{x, x}); err == nil {
						t.Fatalf("op %d: a page holding LPN %d twice was accepted", op, x)
					}
					if after, is := f.Lookup(x); after != before || is != was || f.Stats() != stats {
						t.Fatalf("op %d: rejected duplicate write changed state", op)
					}
				case k < 90:
					bad := []int64{MaxLPN, -1, MaxLPN + leafSize}[r.IntN(3)]
					if _, _, err := f.Write(plane, 0, []int64{bad}); !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("op %d: write at LPN %d: got %v, want ErrOutOfRange", op, bad, err)
					}
					if _, ok := f.Lookup(bad); ok {
						t.Fatalf("op %d: out-of-range LPN %d reported mapped", op, bad)
					}
				default:
					_, werr = f.CollectGarbage(plane, r.IntN(2))
				}
				if werr != nil && !errors.Is(werr, ErrNoSpace) {
					t.Fatalf("op %d: %v", op, werr)
				}
				if err := f.CheckConsistency(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if werr != nil {
					t.Logf("stopped at op %d: %v", op, werr)
					break // faults exhausted a pool; the state must still be consistent
				}
				for lpn := range mapped {
					if _, ok := f.Lookup(lpn); !ok {
						t.Fatalf("op %d: LPN %d lost", op, lpn)
					}
				}
				if op%175 == 174 {
					checkRoundTrip(t, f, lpns)
				}
			}
			checkRoundTrip(t, f, lpns)
			s := f.Stats()
			if s.GC.Erases == 0 || s.ProgramFaults+s.EraseFaults == 0 {
				t.Fatalf("run exercised too little: %d erases, %d program + %d erase faults", s.GC.Erases, s.ProgramFaults, s.EraseFaults)
			}
		})
	}
}

// TestRestoreRejectsOutOfRange: a hand-built snapshot mapping an LPN past
// the address space, or naming a reverse-map page outside the geometry,
// fails to restore with a one-line error instead of growing the table or
// panicking.
func TestRestoreRejectsOutOfRange(t *testing.T) {
	build := func() *SnapshotData {
		f, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Write(0, 0, []int64{5}); err != nil {
			t.Fatal(err)
		}
		return f.SnapshotData()
	}
	cases := map[string]func(*SnapshotData){
		"lpn-past-max": func(s *SnapshotData) { s.fwd[0].LPN = MaxLPN },
		"lpn-negative": func(s *SnapshotData) { s.fwd[0].LPN = -1 },
		"loc-outside":  func(s *SnapshotData) { s.fwd[0].Loc.Block = 99 },
		"rev-block":    func(s *SnapshotData) { s.rev[0].Key = Loc{Block: 99}.pack() },
		"rev-stray":    func(s *SnapshotData) { s.rev[0].Key |= 1 << 63 },
		"rev-overfull": func(s *SnapshotData) { s.rev[0].LPNs = append(s.rev[0].LPNs, 6) },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			snap := build()
			mutate(snap)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			_, err := RestoreSnapshot(&buf)
			if err == nil {
				t.Fatal("corrupt snapshot restored")
			}
			if bytes.ContainsRune([]byte(err.Error()), '\n') {
				t.Errorf("error spans lines: %q", err)
			}
		})
	}
	// The unmodified snapshot restores, so each case fails on its mutation.
	if _, err := RestoreFromData(build()); err != nil {
		t.Fatalf("pristine snapshot: %v", err)
	}
}
