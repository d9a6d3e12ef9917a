package core

import (
	"context"
	"runtime"
	"testing"

	"emmcio/internal/storage"
	"emmcio/internal/trace"
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
	t.Logf("%.2f heap allocations per request, %.1f MB cumulative alloc",
		perReq, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	// Budget: steady-state replay reuses pooled events, scratch chunk/op
	// buffers, and recycled FTL map values, so what remains is residual map
	// churn (~0.3/request when the pools landed; ~7.5 before them). The
	// budget of 2 leaves headroom for map growth while catching any return
	// to per-request allocation — a closure per event alone would blow it.
	if perReq > 2 {
		t.Errorf("replay allocated %.2f objects/request, budget 2 — pooled replay pipeline regressed", perReq)
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
// chunk queue, and SLC read hits must all run on recycled storage. The
// booster's dirty-sector map churns once per admitted and migrated sector,
// so the budget is slightly looser than the eMMC path's.
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
	t.Logf("%.2f heap allocations per request, %.1f MB cumulative alloc",
		perReq, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if perReq > 2 {
		t.Errorf("UFS replay allocated %.2f objects/request, budget 2 — pooled replay pipeline regressed", perReq)
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
