package core

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/ufs"
	"emmcio/internal/workload"
)

// synthStream procedurally generates a deterministic workload of n requests
// without ever holding more than one in memory: the generator the
// bounded-memory claims are tested against. A small xorshift keeps the
// address/size/op mix non-trivial while the working set stays bounded
// (addresses wrap within a 256 MB window so the FTL map cannot grow without
// bound and dominate the measurement).
type synthStream struct {
	n, i int
	s    uint64
}

func newSynthStream(n int) *synthStream { return &synthStream{n: n, s: 0x9E3779B97F4A7C15} }

func (s *synthStream) Name() string { return "synthetic" }

func (s *synthStream) Reset() error {
	s.i = 0
	s.s = 0x9E3779B97F4A7C15
	return nil
}

func (s *synthStream) Next() (trace.Request, bool, error) {
	if s.i >= s.n {
		return trace.Request{}, false, nil
	}
	s.s ^= s.s << 13
	s.s ^= s.s >> 7
	s.s ^= s.s << 17
	r := trace.Request{
		Arrival: int64(s.i) * 250_000, // 4k req/s
		LBA:     (s.s % (1 << 19)) * trace.SectorsPerPage,
		Size:    trace.PageSize * uint32(1+s.s>>61), // 4–32 KB
		Op:      trace.Write,
	}
	if s.s&0x300 == 0 { // ~25% reads
		r.Op = trace.Read
	}
	s.i++
	return r, true, nil
}

// TestStreamReplayAllocationBudget is the memory regression guard for the
// streaming pipeline: replaying a 1M-request synthetic stream must stay
// within a fixed heap-allocation budget — amortized O(1) allocations per
// request, and live-heap growth far below what materializing the trace
// (1M × 48-byte requests ≈ 48 MB) would cost.
func TestStreamReplayAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-request replay")
	}
	const n = 1_000_000
	opt := CaseStudyOptions()
	dev, err := NewDevice(SchemeHPS, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up device-internal lazy structures on a short prefix so the
	// measured window reflects steady-state replay.
	if _, err := Replay(context.Background(), dev, SchemeHPS, newSynthStream(10_000), ReplayOpts{}); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Replay(context.Background(), dev, SchemeHPS, newSynthStream(n), ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f heap allocations per request, %.1f MB cumulative alloc",
		perReq, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	// Budget: steady-state replay reuses pooled events, scratch chunk/op
	// buffers and the FTL's dense tables, so it measures 0.0020/request
	// (~7.5 before the pools landed). The budget of 0.01 fails on one
	// allocation per hundred requests.
	if perReq > 0.01 {
		t.Errorf("replay allocated %.4f objects/request, budget 0.01 — pooled replay pipeline regressed", perReq)
	}

	runtime.GC()
	var settled runtime.MemStats
	runtime.ReadMemStats(&settled)
	growth := int64(settled.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap growth after replay: %.1f MB", float64(growth)/(1<<20))
	// The replay must not retain the trace: allow the device's own map/GC
	// state to grow, but nothing near the 48 MB a materialized 1M-request
	// slice would pin.
	if growth > 24<<20 {
		t.Errorf("live heap grew %d MB during streaming replay, budget 24 MB", growth>>20)
	}
}

// TestStreamReplayAllocationBudgetUFS holds the UFS backend to the same
// steady-state discipline: command-slot admission, the write booster's
// chunk queue, and SLC read hits must all run on recycled storage
// (0.0027/request measured, against the eMMC path's 0.01 budget).
func TestStreamReplayAllocationBudgetUFS(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-request replay")
	}
	const n = 1_000_000
	opt := CaseStudyOptions()
	opt.Backend = storage.BackendUFS
	dev, err := NewDevice(SchemeHPS, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(context.Background(), dev, SchemeHPS, newSynthStream(10_000), ReplayOpts{}); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Replay(context.Background(), dev, SchemeHPS, newSynthStream(n), ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.4f heap allocations per request, %.1f MB cumulative alloc",
		perReq, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if perReq > 0.01 {
		t.Errorf("UFS replay allocated %.4f objects/request, budget 0.01 — pooled replay pipeline regressed", perReq)
	}
}

// TestDeviceAllocationBounds bounds what one device costs the heap: the
// objects NewDevice plus a 2,000-request Replay allocate, for the eMMC
// case-study device, for the same device with its controller caches on (a
// 4 MB RAM buffer and a 64 KiB mapping cache) and for a UFS device with
// its 64 MB write booster. A benchmark replay makes only a few hundred
// allocations in all, so a few new objects per device move allocs_per_req
// by percents. The eMMC bound is the count measured before the NAND back
// end's cost table and staged-sector set, and the UFS bound the count
// measured with the booster's chunks in one LPN ring, so neither may add
// an object. The cached device may add only the caches' arenas and
// indexes, grown by doubling, never an object per cached entry. The collector is off while counting, so a cycle cannot
// empty the replay's pools mid-measurement and add refills to the count.
func TestDeviceAllocationBounds(t *testing.T) {
	ufsOpt := CaseStudyOptions()
	ufsOpt.Backend = storage.BackendUFS
	cachedOpt := CaseStudyOptions()
	cachedOpt.RAMBufferBytes = 4 << 20
	cachedOpt.MapCacheBytes = 64 << 10
	cases := []struct {
		name  string
		opt   Options
		bound float64
	}{
		{"emmc", CaseStudyOptions(), 120},
		// 173-178 measured (the index's growth varies with the map's hash
		// seed); an object per cached sector would be thousands.
		{"emmc-ram-buffer", cachedOpt, 190},
		// The booster's chunks share one ring of LPNs, grown by doubling,
		// so 2,000 requests staging thousands of chunks add a handful.
		{"ufs-booster", ufsOpt, 178},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		allocs := testing.AllocsPerRun(5, func() {
			dev, err := NewDevice(SchemeHPS, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Replay(context.Background(), dev, SchemeHPS, newSynthStream(2_000), ReplayOpts{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per device and replay (bound %.0f)", c.name, allocs, c.bound)
		if allocs > c.bound {
			t.Errorf("%s: device and replay allocated %.0f objects, bound %.0f", c.name, allocs, c.bound)
		}
	}
}

// TestForkAllocationBudget bounds what forking an aged UFS device costs
// the heap: RestoreSealed of its seal plus a 1,000-request replay on the
// fork. The device is the aged-gc-ufs benchmark's (4PS, 1/32 of the
// blocks, 1/8 of the pages per block, an 8 MiB booster, faults on), aged
// by a synthetic write-heavy stream until its booster is full and GC has
// erased more blocks than it has. A fork restores every staged chunk into
// one ring and every written block's reverse slab from a per-pool arena,
// so the count must not grow with either: the aged fork stays under a
// fixed bound far below its 2,048 staged chunks and 256 blocks, and within
// a few objects of a fork of the same device aged for a moment, whose FTL
// holds nothing and whose booster is half full. 195 measured (191 young);
// a slice per staged chunk would add over 2,000.
func TestForkAllocationBudget(t *testing.T) {
	opt := CaseStudyOptions()
	opt.Backend = storage.BackendUFS
	opt.ScaleBlocks = 32
	opt.ScalePages = 8
	opt.UFSBoosterBytes = 8 << 20
	opt.Faults = &faults.Config{Seed: 3, Rate: 1}
	const bound, spread = 200, 32
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(age int) (allocs float64, staged int64, erases, blocks int) {
		dev, err := NewDevice(Scheme4PS, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(context.Background(), dev, Scheme4PS, newSynthStream(age), ReplayOpts{}); err != nil {
			t.Fatal(err)
		}
		sealed, _, err := storage.Seal(dev)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() {
			fork, _, err := RestoreSealed("fork", bytes.NewReader(sealed))
			if err != nil {
				t.Fatal(err)
			}
			st := trace.ShiftStream(newSynthStream(1_000), fork.LastActivity()+1e9)
			if _, err := Replay(context.Background(), fork, Scheme4PS, st, ReplayOpts{}); err != nil {
				t.Fatal(err)
			}
		})
		u := dev.(*ufs.Device)
		for pool := range u.Pools() {
			blocks += u.Wear(pool).Blocks
		}
		return allocs, u.StagedBytes() / flash.SectorBytes, u.FTLStats().GC.Erases, blocks
	}
	young, youngStaged, _, _ := count(300)
	old, staged, erases, blocks := count(20_000)
	t.Logf("fork+replay: %.0f allocations aged (%d staged chunks, %d erases of %d blocks), %.0f young (%d staged chunks)", old, staged, erases, blocks, young, youngStaged)
	if staged < 2*bound || blocks < bound || erases <= blocks {
		t.Fatalf("aged device holds %d staged chunks and erased %d of %d blocks, too little to tell a per-chunk or per-block cost from the %d bound", staged, erases, blocks, bound)
	}
	if old > bound {
		t.Errorf("fork+replay of the aged device allocated %.0f objects, bound %d", old, bound)
	}
	if old-young > spread {
		t.Errorf("fork+replay allocated %.0f objects aged, %.0f young: more than %d apart", old, young, spread)
	}
}

// TestCacheSizeReservesNothing: a controller cache is sized by the entries
// it holds, never by its configured capacity, which an option or an
// imported snapshot's config may set far beyond memory. A device with a
// 1 TiB RAM buffer or a 1 TiB mapping cache allocates within 256 KiB of
// the same device with neither.
func TestCacheSizeReservesNothing(t *testing.T) {
	built := func(opt Options) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewDevice(SchemeHPS, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	base := built(CaseStudyOptions())
	for _, c := range []struct {
		name string
		set  func(*Options)
	}{
		{"ram-buffer", func(o *Options) { o.RAMBufferBytes = 1 << 40 }},
		{"map-cache", func(o *Options) { o.MapCacheBytes = 1 << 40 }},
	} {
		opt := CaseStudyOptions()
		c.set(&opt)
		extra := built(opt) - base
		t.Logf("1 TiB %s: %+d bytes over an uncached device (%d)", c.name, extra, base)
		if extra > 256<<10 {
			t.Errorf("1 TiB %s allocates %d KiB more than an uncached device, budget 256 KiB", c.name, extra>>10)
		}
	}
}

// TestTracedReplayAllocationBudget extends the allocation discipline to
// telemetry: attaching a registry and a span tracer resolves metric
// handles and span keys once, so a traced Twitter replay may allocate only
// a constant number of objects more than an untraced one, however many
// requests it replays. A tracer that formats a track name or builds a
// label slice per span (about 8 allocations per request) fails by two
// orders of magnitude.
func TestTracedReplayAllocationBudget(t *testing.T) {
	tr := workload.DefaultRegistry().Lookup(paper.Twitter).Generate(workload.DefaultSeed)
	mallocs := func(o ReplayOpts) int64 {
		dev, err := NewDevice(SchemeHPS, CaseStudyOptions())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Replay(context.Background(), dev, SchemeHPS, trace.FromSlice(tr), o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	off := mallocs(ReplayOpts{})
	on := mallocs(ReplayOpts{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(0)})
	extra := on - off
	t.Logf("%d requests: %d allocations untraced, %d traced (+%d)", len(tr.Reqs), off, on, extra)
	// Attaching costs a few hundred allocations (handles, keys, track
	// names); the budget leaves room for that while staying far below one
	// allocation per request.
	const budget = 1500
	if extra > budget {
		t.Errorf("traced replay allocated %d objects more than untraced, budget %d (%.2f per request)",
			extra, budget, float64(extra)/float64(len(tr.Reqs)))
	}
}

// BenchmarkReplayStream1k and BenchmarkReplaySlice1k compare the streaming
// replay path against the materialize-then-replay path on the same
// synthetic workload; -benchmem (ReportAllocs below) makes the memory
// difference part of the regression surface.
func BenchmarkReplayStream1k(b *testing.B) {
	benchReplay(b, true)
}

func BenchmarkReplaySlice1k(b *testing.B) {
	benchReplay(b, false)
}

// BenchmarkReplayUFS1k replays the same synthetic workload on the UFS
// backend, putting the command-queue admission and write-booster paths on
// the regression trajectory next to the eMMC replays above.
func BenchmarkReplayUFS1k(b *testing.B) {
	const n = 1_000
	opt := CaseStudyOptions()
	opt.Backend = storage.BackendUFS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev, err := NewDevice(SchemeHPS, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Replay(context.Background(), dev, SchemeHPS, newSynthStream(n), ReplayOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReplay(b *testing.B, streamed bool) {
	const n = 1_000
	opt := CaseStudyOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev, err := NewDevice(SchemeHPS, opt)
		if err != nil {
			b.Fatal(err)
		}
		if streamed {
			_, err = Replay(context.Background(), dev, SchemeHPS, newSynthStream(n), ReplayOpts{})
		} else {
			var tr *trace.Trace
			tr, err = trace.Collect(newSynthStream(n))
			if err == nil {
				_, err = Replay(context.Background(), dev, SchemeHPS, trace.FromSlice(tr), ReplayOpts{})
			}
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
