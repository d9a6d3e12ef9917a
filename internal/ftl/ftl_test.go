package ftl

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"emmcio/internal/flash"
	"emmcio/internal/rng"
)

func smallConfig(pools ...flash.PoolSpec) Config {
	if len(pools) == 0 {
		pools = []flash.PoolSpec{{PageBytes: 4096, BlocksPerPlane: 8, PagesPerBlock: 4}}
	}
	return Config{
		Geometry:     flash.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1},
		Pools:        pools,
		GCFreeBlocks: 2,
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := smallConfig()
	bad.GCFreeBlocks = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero GC threshold accepted")
	}
	dup := smallConfig(
		flash.PoolSpec{PageBytes: 4096, BlocksPerPlane: 4, PagesPerBlock: 4},
		flash.PoolSpec{PageBytes: 4096, BlocksPerPlane: 4, PagesPerBlock: 4},
	)
	if _, err := New(dup); err == nil {
		t.Fatal("duplicate pool page size accepted")
	}
}

func TestWriteLookupRoundTrip(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	loc, gc, err := f.Write(0, 0, []int64{42})
	if err != nil {
		t.Fatal(err)
	}
	if !gc.Zero() {
		t.Fatal("fresh device should not GC")
	}
	got, ok := f.Lookup(42)
	if !ok || got != loc {
		t.Fatalf("Lookup(42) = %+v/%v, want %+v", got, ok, loc)
	}
	if _, ok := f.Lookup(99); ok {
		t.Fatal("Lookup invented a mapping")
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	f, _ := New(smallConfig())
	loc1, _, _ := f.Write(0, 0, []int64{7})
	loc2, _, _ := f.Write(0, 0, []int64{7})
	if loc1 == loc2 {
		t.Fatal("overwrite reused the same physical page (NAND forbids in-place update)")
	}
	got, _ := f.Lookup(7)
	if got != loc2 {
		t.Fatal("mapping not updated on overwrite")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoSectorsPerLargePage(t *testing.T) {
	f, _ := New(smallConfig(flash.PoolSpec{PageBytes: 8192, BlocksPerPlane: 8, PagesPerBlock: 4}))
	loc, _, err := f.Write(0, 0, []int64{10, 11})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Lookup(10)
	b, _ := f.Lookup(11)
	if a != loc || b != loc {
		t.Fatal("both sectors should map to the same 8 KB page")
	}
	if f.PageBytes(loc) != 8192 {
		t.Fatal("PageBytes mismatch")
	}
}

func TestPartialLargePageWastesFootprint(t *testing.T) {
	f, _ := New(smallConfig(flash.PoolSpec{PageBytes: 8192, BlocksPerPlane: 8, PagesPerBlock: 4}))
	if _, _, err := f.Write(0, 0, []int64{5}); err != nil { // 4 KB into an 8 KB page
		t.Fatal(err)
	}
	s := f.Stats()
	if s.HostPayloadBytes != 4096 || s.HostFootprintBytes != 8192 {
		t.Fatalf("payload/footprint = %d/%d, want 4096/8192", s.HostPayloadBytes, s.HostFootprintBytes)
	}
	if u := s.SpaceUtilization(); u != 0.5 {
		t.Fatalf("space utilization %v, want 0.5", u)
	}
}

func TestWriteRejectsTooManyLPNs(t *testing.T) {
	f, _ := New(smallConfig())
	if _, _, err := f.Write(0, 0, []int64{1, 2}); err == nil {
		t.Fatal("two sectors on a 4 KB page accepted")
	}
	if _, _, err := f.Write(0, 0, nil); err == nil {
		t.Fatal("empty write accepted")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	// 8 blocks x 4 pages; hammer one LPN so stale pages pile up and GC must
	// fire well before 32 writes of capacity are exhausted.
	f, _ := New(smallConfig())
	var gcTotal GCWork
	for i := 0; i < 500; i++ {
		_, gc, err := f.Write(0, 0, []int64{1})
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		gcTotal.Add(gc)
	}
	if gcTotal.Erases == 0 {
		t.Fatal("GC never fired under sustained overwrites")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The single live LPN must still resolve.
	if _, ok := f.Lookup(1); !ok {
		t.Fatal("GC lost the live mapping")
	}
}

func TestGCPreservesLiveData(t *testing.T) {
	f, _ := New(smallConfig())
	// Live set of 6 LPNs, overwritten in rotation: everything must stay
	// mapped forever.
	live := []int64{10, 20, 30, 40, 50, 60}
	for i := 0; i < 900; i++ {
		lpn := live[i%len(live)]
		if _, _, err := f.Write(i%2, 0, []int64{lpn}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, lpn := range live {
		if _, ok := f.Lookup(lpn); !ok {
			t.Fatalf("LPN %d lost", lpn)
		}
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectGarbageHook(t *testing.T) {
	f, _ := New(smallConfig())
	for i := 0; i < 23; i++ { // fill most of the plane with stale data
		f.Write(0, 0, []int64{int64(i % 3)})
	}
	if !f.NeedsGC(0, 0) {
		t.Skip("pool not yet at threshold; adjust fill count")
	}
	gc, err := f.CollectGarbage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Erases == 0 {
		t.Fatal("CollectGarbage reclaimed nothing at threshold")
	}
	if f.NeedsGC(0, 0) {
		t.Fatal("pool still at threshold after CollectGarbage")
	}
}

func TestWearLevelingSpreadsErases(t *testing.T) {
	f, _ := New(smallConfig())
	for i := 0; i < 3000; i++ {
		// Spread load across both planes; wear is leveled within a plane.
		f.Write(i%2, 0, []int64{int64(i % 4)})
	}
	w := f.Wear(0)
	if w.TotalErases == 0 {
		t.Fatal("no erases recorded")
	}
	// Round-robin free-list discipline keeps the spread tight.
	if w.MaxErases-w.MinErases > w.MaxErases/2+2 {
		t.Fatalf("wear spread too wide: min %d max %d", w.MinErases, w.MaxErases)
	}
}

func TestOutOfSpaceReported(t *testing.T) {
	cfg := smallConfig()
	cfg.Pools[0].BlocksPerPlane = 3
	cfg.GCFreeBlocks = 1
	f, _ := New(cfg)
	// All-distinct LPNs on one plane: capacity 3 blocks x 4 pages = 12 pages,
	// with no stale data GC cannot reclaim anything.
	var sawErr bool
	for i := 0; i < 20; i++ {
		if _, _, err := f.Write(0, 0, []int64{int64(1000 + i)}); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("writing past physical capacity with all-live data did not error")
	}
}

// Property: random mixed workload across two pools keeps the FTL consistent
// and never loses the most recent copy of any sector.
func TestFTLConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ftl, err := New(smallConfig(
			flash.PoolSpec{PageBytes: 4096, BlocksPerPlane: 10, PagesPerBlock: 8},
			flash.PoolSpec{PageBytes: 8192, BlocksPerPlane: 6, PagesPerBlock: 8},
		))
		if err != nil {
			return false
		}
		r := rng.New(seed)
		model := map[int64]bool{}
		// Keep the live set well under pool capacity: the 8 KB pool has
		// 6 blocks x 8 pages per plane, and fragmentation can leave one live
		// sector per page.
		for i := 0; i < 600; i++ {
			lpn := int64(r.IntN(16))
			plane := r.IntN(2)
			if r.Bool(0.5) {
				if _, _, err := ftl.Write(plane, 0, []int64{lpn}); err != nil {
					return false
				}
				model[lpn] = true
			} else {
				lpn2 := lpn + 1000 // distinct address space for the 8K pool
				if _, _, err := ftl.Write(plane, 1, []int64{lpn2, lpn2 + 1}); err != nil {
					return false
				}
				model[lpn2], model[lpn2+1] = true, true
			}
		}
		for lpn := range model {
			if _, ok := ftl.Lookup(lpn); !ok {
				return false
			}
		}
		return ftl.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	f, _ := New(smallConfig())
	f.Write(0, 0, []int64{1})
	f.Write(1, 0, []int64{2})
	s := f.Stats()
	if s.HostProgrammedPages != 2 || s.HostPayloadBytes != 8192 || s.HostFootprintBytes != 8192 {
		t.Fatalf("stats %+v", s)
	}
	if s.SpaceUtilization() != 1.0 {
		t.Fatal("4 KB pool must have perfect utilization")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	f, _ := New(smallConfig())
	for i := 0; i < 100; i++ {
		if _, _, err := f.Write(i%2, 0, []int64{int64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	back, err := restoreBytes(f.cfg, f.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < 7; lpn++ {
		a, okA := f.Lookup(lpn)
		b, okB := back.Lookup(lpn)
		if okA != okB || a != b {
			t.Fatalf("lpn %d mapping differs after restore", lpn)
		}
	}
	if f.Stats() != back.Stats() {
		t.Fatal("stats differ after restore")
	}
	if f.PoolAvgPE(0) != back.PoolAvgPE(0) {
		t.Fatal("wear differs after restore")
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	if _, err := restoreBytes(smallConfig(), []byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Well-formed state restored under a configuration with fewer planes
	// leaves bytes unread.
	f, _ := New(smallConfig())
	cfg := smallConfig()
	cfg.Geometry.Channels = 1
	if _, err := restoreBytes(cfg, f.AppendState(nil)); err == nil {
		t.Fatal("plane-count mismatch accepted")
	}
}

func TestPoolAvgPEAndArtificialWear(t *testing.T) {
	f, _ := New(smallConfig())
	if f.PoolAvgPE(0) != 0 {
		t.Fatal("fresh FTL has wear")
	}
	f.AddArtificialWear(0, 32) // 16 blocks (8 per plane x 2 planes)
	if got := f.PoolAvgPE(0); got != 2 {
		t.Fatalf("avg PE %v, want 2", got)
	}
}

// TestNoSpaceWriteAllocatesNothing: once a pool is exhausted, every
// write fails with the pool's one ErrNoSpace value, whose text is
// formatted only when read, so a replay (or a fork of an aged device) that
// keeps hitting it allocates nothing, the first failure included.
func TestNoSpaceWriteAllocatesNothing(t *testing.T) {
	// Count the writes a fresh pool takes, then fill a second one to the
	// same point, so its next write is its first failure.
	fits := int64(0)
	probe, _ := New(smallConfig())
	for ; ; fits++ {
		if _, _, err := probe.Write(0, 0, []int64{fits}); err != nil {
			break
		}
	}
	f, _ := New(smallConfig())
	for lpn := range fits {
		if _, _, err := f.Write(0, 0, []int64{lpn}); err != nil {
			t.Fatalf("write %d of %d failed: %v", lpn, fits, err)
		}
	}
	lpns := []int64{1 << 20}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := f.Write(0, 0, lpns)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write into the full pool = %v, want ErrNoSpace", err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the pool's first ErrNoSpace allocates %d times, want 0", n)
	}
	if got, want := err.Error(), "ftl: plane 0 pool 0: ftl: out of space"; got != want {
		t.Errorf("error text %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := f.Write(0, 0, lpns); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("write into the exhausted pool = %v, want ErrNoSpace", err)
		}
	})
	if allocs != 0 {
		t.Errorf("a write into an exhausted pool allocates %v times, want 0", allocs)
	}
}

// TestSteadyStateGCAllocatesNothing: once every block has opened and been
// erased, garbage collection recycles reverse slabs and the free list in
// place, so further writes allocate nothing, whichever order the free list
// is kept in.
func TestSteadyStateGCAllocatesNothing(t *testing.T) {
	for _, policy := range []WearPolicy{WearNone, WearRoundRobin, WearStatic} {
		f, err := New(wearConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, f, 2000)
		erases := f.Stats().GC.Erases
		lpns := []int64{0}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range 4000 {
			lpns[0] = int64(i % 4)
			if _, _, err := f.Write(0, 0, lpns); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if n := f.Stats().GC.Erases - erases; n < 100 {
			t.Fatalf("%v: %d erases in the measured writes, want a steady stream", policy, n)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%v: 4000 writes under GC allocated %d objects, want 0", policy, n)
		}
	}
}
