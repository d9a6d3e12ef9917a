package nand

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"strings"
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

// TestStageRingMatchesQueue drives the stage's LPN ring and a reference
// FIFO of chunk copies through the same seeded mix of add, pop and
// seal/restore, with chunk sizes 1..spp of each chunk's pool. Every pop
// must return the reference's oldest chunk, pool and LPNs, and holds must
// answer as a reference index with the stage's set semantics: an add
// inserts its sectors, a pop drops each of its sectors (the defect
// TestStageSetSemantics pins), and a restore rebuilds from the pending
// chunks. Adds outnumber pops early, so the ring grows several times, and
// then the mix is balanced, so chunks keep wrapping past the ring's end.
func TestStageRingMatchesQueue(t *testing.T) {
	p := testParams()
	type chunk struct {
		pool int
		lpns []int64
	}
	const space = 256
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		b, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		var want []chunk
		held := map[int64]bool{}
		grew, wrapped, restores := 0, 0, 0
		for op := range 6000 {
			s := b.stage
			ring := len(s.ring)
			addPct := 50
			if op < 1500 {
				addPct = 65
			}
			switch r := rng.IntN(100); {
			case r < 1:
				rb, err := Restore(p, wire.NewReader(b.AppendState(nil)))
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				b = rb
				restores++
				clear(held)
				for _, c := range want {
					for _, lpn := range c.lpns {
						held[lpn] = true
					}
				}
			case r < 1+addPct:
				pool := rng.IntN(len(p.Pools))
				lpns := make([]int64, 1+rng.IntN(p.Pools[pool].SectorsPerPage()))
				for i := range lpns {
					lpns[i] = int64(rng.IntN(space))
				}
				s.add(pool, lpns)
				want = append(want, chunk{pool, lpns})
				for _, lpn := range lpns {
					held[lpn] = true
				}
				if len(s.ring) > ring {
					grew++
				}
				if s.queue[len(s.queue)-1].off < s.queue[s.head].off {
					wrapped++
				}
			default:
				c, ok := s.pop()
				if ok != (len(want) > 0) {
					t.Fatalf("seed %d op %d: pop ok=%v with %d chunks pending", seed, op, ok, len(want))
				}
				if !ok {
					break
				}
				if got := s.lpns(c); c.pool != want[0].pool || !slices.Equal(got, want[0].lpns) {
					t.Fatalf("seed %d op %d: popped pool %d %v, want pool %d %v", seed, op, c.pool, got, want[0].pool, want[0].lpns)
				}
				for _, lpn := range want[0].lpns {
					delete(held, lpn)
				}
				want = want[1:]
			}
			s = b.stage
			sectors := 0
			for _, c := range want {
				sectors += len(c.lpns)
			}
			if s.pending() != len(want) || s.usedBytes != int64(sectors)*flash.SectorBytes {
				t.Fatalf("seed %d op %d: %d chunks, %d bytes staged; want %d, %d", seed, op, s.pending(), s.usedBytes, len(want), sectors*flash.SectorBytes)
			}
			for lpn := int64(0); lpn < space; lpn++ {
				if s.holds(lpn) != held[lpn] {
					t.Fatalf("seed %d op %d: holds(%d) = %v, want %v", seed, op, lpn, s.holds(lpn), held[lpn])
				}
			}
		}
		t.Logf("seed %d: ring grew %d times, wrapped %d chunks, restored %d times", seed, grew, wrapped, restores)
		if grew < 3 || wrapped == 0 || restores == 0 {
			t.Errorf("seed %d: ring grew %d times, wrapped %d chunks, restored %d times; want >= 3, > 0, > 0", seed, grew, wrapped, restores)
		}
	}
}

// TestRestoreRejectsOverclaimedStage: a snapshot whose staged-chunk count
// claims more chunks than it holds, while the bytes left still pass the
// count's size check, must fail with an error. The ring a restore sizes
// from the bytes left cannot hold the chunks that are there, so it must
// not be indexed past its end.
func TestRestoreRejectsOverclaimedStage(t *testing.T) {
	p := testParams()
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := range int64(n) {
		b.stage.add(0, []int64{2 * i, 2*i + 1}) // pool 0 pages hold 2 sectors
	}
	state := b.AppendState(nil)
	// Each chunk is 2 header bytes and two 4-byte LPNs, and the chunk
	// count sits just before them.
	at := len(state) - n*10 - 4
	if got := binary.LittleEndian.Uint32(state[at:]); got != n {
		t.Fatalf("chunk count at byte %d reads %d, want %d", at, got, n)
	}
	binary.LittleEndian.PutUint32(state[at:], n+n/2)
	_, err = Restore(p, wire.NewReader(state))
	if err == nil || !strings.Contains(err.Error(), "staged chunks hold more LPNs") {
		t.Fatalf("restore of an over-claimed stage: %v", err)
	}
}
