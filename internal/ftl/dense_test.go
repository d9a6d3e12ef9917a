package ftl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/rng"
	"emmcio/internal/wire"
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
	return f.AppendState(nil)
}

// restoreBytes restores state AppendState wrote, requiring every byte to
// be consumed.
func restoreBytes(cfg Config, b []byte) (*FTL, error) {
	r := wire.NewReader(b)
	f, err := Restore(cfg, r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// checkRoundTrip restores f's snapshot and checks the restored FTL
// re-snapshots to the same bytes and resolves every LPN the same way.
func checkRoundTrip(t *testing.T, f *FTL, lpns []int64) {
	t.Helper()
	a := snapshotBytes(t, f)
	g, err := restoreBytes(f.cfg, a)
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

// TestRestoreRejectsOutOfRange: state naming an LPN past the address
// space, a block or page outside the geometry, or a count the bytes cannot
// back fails to restore with a one-line error instead of growing a table,
// allocating by the claim, or panicking. The state holds one write, LPN 5
// on page 0 of block 0 of plane 0, whose fields sit at fixed offsets.
func TestRestoreRejectsOutOfRange(t *testing.T) {
	cfg := smallConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Write(0, 0, []int64{5}); err != nil {
		t.Fatal(err)
	}
	pristine := f.AppendState(nil)
	base := 13*8 + 8*len(cfg.Pools) // stats and pool erases
	const (
		active  = 0  // int32 active block
		runs    = 4  // uint32 free-list runs
		written = 16 // uint32 written blocks, after one 8-byte run
		index   = 20 // uint32 block index
		ptr     = 28 // uint32 write pointer, after the erase count
		retired = 32 // uint8 retired flag
		live    = 33 // uint8 live count of page 0
		lpn     = 34 // uint32 LPN
	)
	le := binary.LittleEndian
	if le.Uint32(pristine[base+written:]) != 1 || le.Uint32(pristine[base+ptr:]) != 1 ||
		pristine[base+live] != 1 || le.Uint32(pristine[base+lpn:]) != 5 {
		t.Fatalf("state layout moved: % x", pristine[base:base+lpn+4])
	}
	u32 := func(at int, v uint32) func([]byte) { return func(b []byte) { le.PutUint32(b[base+at:], v) } }
	cases := map[string]func([]byte){
		"lpn-past-max":    u32(lpn, MaxLPN),
		"lpn-negative":    u32(lpn, 0xffffffff),
		"loc-outside":     u32(index, 99),
		"rev-block":       u32(active, 99),
		"rev-stray":       u32(ptr, 5),
		"rev-overfull":    func(b []byte) { b[base+live] = 2 },
		"retired-live":    func(b []byte) { b[base+retired] = 1 },
		"blocks-2^31":     u32(written, 1<<31),
		"free-runs-2^31":  u32(runs, 1<<31),
		"free-run-2^31":   u32(runs+8, 1<<31),
		"truncated":       func(b []byte) {},
		"active-negative": u32(active, 0xfffffffe),
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), pristine...)
			mutate(b)
			if name == "truncated" {
				b = b[:len(b)-1]
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := restoreBytes(cfg, b)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("corrupt state restored")
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error spans lines: %q", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("restore allocated %d bytes before refusing", grew)
			}
		})
	}
	// The unmodified state restores, so each case fails on its mutation.
	if _, err := restoreBytes(cfg, pristine); err != nil {
		t.Fatalf("pristine state: %v", err)
	}
}
