package nand

import (
	"math/rand/v2"
	"slices"
	"testing"

	"emmcio/internal/flash"
	"emmcio/internal/wire"
)

// TestLPNSetMatchesMap drives the staged-sector index and a map[int64]bool
// through the same seeded mix of add, has and remove and requires the same
// answer to every query. The keys are drawn so that many share a home slot
// and probe runs wrap past the table's end, and the set starts empty so
// it grows several times on the way.
func TestLPNSetMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var s lpnSet
		want := map[int64]bool{}
		// A pool of 600 keys, half a dense run and half spread over the
		// address space, keeps the table about half full once grown, so
		// homes collide and some probe runs wrap past the table's end.
		pool := make([]int64, 0, 600)
		for i := range 300 {
			pool = append(pool, int64(i))
			pool = append(pool, int64(rng.IntN(1<<29)))
		}
		for op := range 20_000 {
			lpn := pool[rng.IntN(len(pool))]
			switch rng.IntN(3) {
			case 0:
				s.add(lpn)
				want[lpn] = true
			case 1:
				s.remove(lpn)
				delete(want, lpn)
			}
			if got := s.has(lpn); got != want[lpn] {
				t.Fatalf("seed %d op %d: has(%d) = %v, want %v", seed, op, lpn, got, want[lpn])
			}
			if s.n != len(want) {
				t.Fatalf("seed %d op %d: set counts %d, map holds %d", seed, op, s.n, len(want))
			}
		}
		for _, lpn := range pool {
			if got := s.has(lpn); got != want[lpn] {
				t.Fatalf("seed %d: final has(%d) = %v, want %v", seed, lpn, got, want[lpn])
			}
		}
		if len(s.slots) <= lpnSetMinSlots {
			t.Errorf("seed %d: set never grew past the smallest table (%d slots)", seed, len(s.slots))
		}
		if 2*s.n > len(s.slots) {
			t.Errorf("seed %d: %d LPNs in %d slots, over half full", seed, s.n, len(s.slots))
		}
	}
}

// TestLPNSetRemoveWrapsTableEnd builds probe runs that cross the end of
// the table, then removes their members in shuffled orders: backward-shift
// deletion must keep each survivor reachable from its home slot.
func TestLPNSetRemoveWrapsTableEnd(t *testing.T) {
	var s lpnSet
	s.resize(lpnSetMinSlots)
	last := len(s.slots) - 1
	// Collect LPNs whose home is one of the last two slots: inserted
	// together, their run wraps to the table's start.
	var keys []int64
	for lpn := int64(0); len(keys) < 6; lpn++ {
		if s.home(uint32(lpn)+1) >= last-1 {
			keys = append(keys, lpn)
		}
	}
	wrapped := false
	perm := []int{0, 1, 2, 3, 4, 5}
	for trial := range 50 {
		rand.New(rand.NewPCG(uint64(trial), 1)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, k := range keys {
			s.add(k)
		}
		if s.slots[0] != 0 {
			wrapped = true
		}
		for i, p := range perm {
			s.remove(keys[p])
			for _, q := range perm[i+1:] {
				if !s.has(keys[q]) {
					t.Fatalf("trial %d: removing %v lost %d", trial, keys[p], keys[q])
				}
			}
			if s.has(keys[p]) {
				t.Fatalf("trial %d: %d still present after remove", trial, keys[p])
			}
		}
		if s.n != 0 || slices.ContainsFunc(s.slots, func(v uint32) bool { return v != 0 }) {
			t.Fatalf("trial %d: set not empty after removing every key", trial)
		}
	}
	if !wrapped {
		t.Fatal("no probe run wrapped past the table's end")
	}
}

// TestStageSetSemantics pins the index's set semantics, including the
// defect ROADMAP records: popping a chunk drops each of its sectors from
// the index even while a newer pending chunk still holds the sector.
func TestStageSetSemantics(t *testing.T) {
	s := newStage(64 << 10)
	s.add(0, []int64{5, 6})
	s.add(0, []int64{5})
	if !s.holds(5) || !s.holds(6) {
		t.Fatal("staged sectors not held")
	}
	if _, ok := s.pop(); !ok {
		t.Fatal("pop of a non-empty stage failed")
	}
	if s.holds(5) || s.holds(6) || s.pending() != 1 {
		t.Fatalf("after one pop: holds(5)=%v holds(6)=%v pending=%d, want false false 1", s.holds(5), s.holds(6), s.pending())
	}
}

// TestStageIndexFollowsStagedSectors configures a stage of 1 PiB: its index
// must allocate nothing until a sector is staged, then grow with the
// staged sectors alone, on the device and on its restore, keeping every
// sector. Staging past capBytes (one oversize write after DestageForSpace)
// is the same growth.
func TestStageIndexFollowsStagedSectors(t *testing.T) {
	p := testParams()
	p.StageBytes = 1 << 50
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(b.stage.index.slots); n != 0 {
		t.Fatalf("empty 1 PiB stage: index has %d slots, want none", n)
	}
	if b.stage.holds(0) {
		t.Fatal("empty stage holds LPN 0")
	}
	const staged = 100
	for lpn := int64(0); lpn < staged; lpn++ {
		b.stage.add(0, []int64{lpn})
	}
	r, err := Restore(p, wire.NewReader(b.AppendState(nil)))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*stage{"built": b.stage, "restored": r.stage} {
		for lpn := int64(0); lpn < staged; lpn++ {
			if !s.holds(lpn) {
				t.Fatalf("%s: LPN %d lost as the index grew", name, lpn)
			}
		}
		if n := len(s.index.slots); n < 2*staged || n > 4*staged {
			t.Errorf("%s: %d staged LPNs in %d slots, want %d..%d", name, staged, n, 2*staged, 4*staged)
		}
	}
}

// testParams is a small two-pool array with an SLC stage.
func testParams() Params {
	return Params{
		Name:     "test",
		Geometry: flash.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2},
		Timing: flash.Timing{
			PerPage: map[int]flash.OpTiming{
				4096: {ReadNs: 160_000, ProgramNs: 1_385_000},
				8192: {ReadNs: 244_000, ProgramNs: 1_491_000},
			},
			EraseNs:        3_800_000,
			PipelineFactor: 1,
		},
		Pools: []flash.PoolSpec{
			{PageBytes: 8192, BlocksPerPlane: 16, PagesPerBlock: 16},
			{PageBytes: 4096, BlocksPerPlane: 16, PagesPerBlock: 16},
		},
		GCFreeBlocks: 2,
		StageBytes:   256 << 10,
		SLCStage:     true,
	}
}

// TestRestoredStageHoldsSameSectors stages and destages a seeded stream of
// writes, seals the back end mid-stream and restores it: the restored
// stage must answer holds exactly as the sealed one for every LPN the
// stream touched. Each write stages sectors no pending chunk holds, which
// keeps the stream clear of the pop defect TestStageSetSemantics pins.
func TestRestoredStageHoldsSameSectors(t *testing.T) {
	p := testParams()
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 0))
	const space = 512
	for range 400 {
		if rng.IntN(3) == 0 {
			b.destageOne()
			continue
		}
		start := int64(rng.IntN(space - 4))
		lpns := []int64{start, start + 1, start + 2}[:1+rng.IntN(3)]
		if slices.ContainsFunc(lpns, b.stage.holds) {
			continue
		}
		b.DestageForSpace(int64(len(lpns)) * flash.SectorBytes)
		for _, c := range b.split(lpns) {
			b.Stage(c)
		}
	}
	if b.stage.pending() == 0 {
		t.Fatal("stream left nothing staged")
	}
	r, err := Restore(p, wire.NewReader(b.AppendState(nil)))
	if err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < space; lpn++ {
		if got, want := r.stage.holds(lpn), b.stage.holds(lpn); got != want {
			t.Errorf("LPN %d: restored holds %v, sealed holds %v", lpn, got, want)
		}
	}
	if r.stage.index.n != b.stage.index.n {
		t.Errorf("restored index holds %d LPNs, sealed %d", r.stage.index.n, b.stage.index.n)
	}
}
