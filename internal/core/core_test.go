package core

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

func TestSchemeStrings(t *testing.T) {
	if Scheme4PS.String() != "4PS" || Scheme8PS.String() != "8PS" || SchemeHPS.String() != "HPS" {
		t.Fatal("scheme names do not match the paper")
	}
}

// All three Table V configurations have the same 32 GB capacity.
func TestTableVCapacityParity(t *testing.T) {
	for _, s := range Schemes {
		cfg := DeviceConfig(s, Options{})
		var total int64
		for _, p := range cfg.Pools {
			total += p.BytesPerPlane() * int64(cfg.Geometry.Planes())
		}
		if total != 32<<30 {
			t.Errorf("%s capacity %d, want 32 GiB", s, total)
		}
	}
}

func TestTableVGeometryShared(t *testing.T) {
	g := DeviceConfig(Scheme4PS, Options{}).Geometry
	if g.Planes() != 8 || g.Channels != 2 {
		t.Fatalf("geometry %+v does not match Table V", g)
	}
	for _, s := range Schemes {
		if DeviceConfig(s, Options{}).Geometry != g {
			t.Errorf("%s geometry differs; Table V holds parallelism constant", s)
		}
	}
}

func TestHPSPoolSplit(t *testing.T) {
	cfg := DeviceConfig(SchemeHPS, Options{})
	if len(cfg.Pools) != 2 {
		t.Fatalf("HPS has %d pools, want 2", len(cfg.Pools))
	}
	if cfg.Pools[0].PageBytes != 8192 || cfg.Pools[0].BlocksPerPlane != 256 {
		t.Errorf("HPS 8K pool %+v, want 256 blocks", cfg.Pools[0])
	}
	if cfg.Pools[1].PageBytes != 4096 || cfg.Pools[1].BlocksPerPlane != 512 {
		t.Errorf("HPS 4K pool %+v, want 512 blocks", cfg.Pools[1])
	}
}

func smallTrace() *trace.Trace {
	tr := &trace.Trace{Name: "unit"}
	at := int64(0)
	for i := 0; i < 200; i++ {
		at += 5_000_000
		op := trace.Write
		if i%3 == 0 {
			op = trace.Read
		}
		size := uint32((i%6 + 1) * 4096)
		tr.Reqs = append(tr.Reqs, trace.Request{Arrival: at, LBA: uint64(i*64) * 8, Size: size, Op: op})
	}
	return tr
}

// loopFunc is one replay loop under test.
type loopFunc func(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, sink func(trace.Request) error) (Metrics, error)

// replayPolicy is Replay under policy as a loopFunc.
func replayPolicy(policy SchedPolicy) loopFunc {
	return func(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, sink func(trace.Request) error) (Metrics, error) {
		return Replay(ctx, dev, s, st, ReplayOpts{Policy: policy, Sink: sink})
	}
}

// replaySlice replays tr through loop on a fresh device of scheme s and
// writes the replayed requests back into tr in arrival order, so tests can
// compare loops request by request.
func replaySlice(loop loopFunc, s Scheme, opt Options, tr *trace.Trace) (Metrics, error) {
	dev, err := NewDevice(s, opt)
	if err != nil {
		return Metrics{}, err
	}
	out := make([]trace.Request, 0, len(tr.Reqs))
	m, err := loop(context.Background(), dev, s, trace.FromSlice(tr), func(r trace.Request) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return m, err
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Arrival < out[b].Arrival })
	copy(tr.Reqs, out)
	return m, nil
}

// replayTrace is a FIFO Replay of tr on a fresh device through replaySlice.
func replayTrace(s Scheme, opt Options, tr *trace.Trace) (Metrics, error) {
	return replaySlice(replayPolicy(SchedFIFO), s, opt, tr)
}

func TestReplayFillsTimestamps(t *testing.T) {
	tr := smallTrace()
	m, err := replayTrace(Scheme4PS, Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(tr.Reqs) {
		t.Fatalf("served %d, want %d", m.Served, len(tr.Reqs))
	}
	for i, r := range tr.Reqs {
		if r.ServiceStart < r.Arrival || r.Finish <= r.ServiceStart {
			t.Fatalf("request %d has bad timestamps %+v", i, r)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.MeanResponseNs <= 0 || m.MeanServiceNs <= 0 {
		t.Fatal("zero response/service means")
	}
	if m.MeanResponseNs < m.MeanServiceNs {
		t.Fatal("response time cannot be below service time")
	}
}

func TestReplayDeterministic(t *testing.T) {
	a := smallTrace()
	b := smallTrace()
	ma, _ := replayTrace(SchemeHPS, Options{}, a)
	mb, _ := replayTrace(SchemeHPS, Options{}, b)
	if ma != mb {
		t.Fatalf("identical replays diverged: %+v vs %+v", ma, mb)
	}
}

// 4PS and HPS achieve perfect space utilization; 8PS pays for padded tails.
func TestSpaceUtilizationOrdering(t *testing.T) {
	for _, s := range []Scheme{Scheme4PS, SchemeHPS} {
		tr := smallTrace()
		m, err := replayTrace(s, Options{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if m.SpaceUtilization != 1.0 {
			t.Errorf("%s space utilization %v, want 1.0", s, m.SpaceUtilization)
		}
	}
	tr := smallTrace()
	m8, err := replayTrace(Scheme8PS, Options{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if m8.SpaceUtilization >= 1.0 {
		t.Errorf("8PS space utilization %v, want < 1.0", m8.SpaceUtilization)
	}
}

// HPS mean response time beats 4PS on a real app trace (Fig. 8 direction),
// and 8PS lands near HPS.
func TestHPSBeats4PSOnAppTrace(t *testing.T) {
	prof := workload.DefaultRegistry().Lookup(paper.Twitter)
	opt := CaseStudyOptions()

	tr4 := prof.Generate(workload.DefaultSeed)
	m4, err := replayTrace(Scheme4PS, opt, tr4)
	if err != nil {
		t.Fatal(err)
	}
	trH := prof.Generate(workload.DefaultSeed)
	mH, err := replayTrace(SchemeHPS, opt, trH)
	if err != nil {
		t.Fatal(err)
	}
	if mH.MeanResponseNs >= m4.MeanResponseNs {
		t.Fatalf("HPS MRT %.2fms not below 4PS MRT %.2fms",
			mH.MeanResponseNs/1e6, m4.MeanResponseNs/1e6)
	}
	tr8 := prof.Generate(workload.DefaultSeed)
	m8, err := replayTrace(Scheme8PS, opt, tr8)
	if err != nil {
		t.Fatal(err)
	}
	rel := m8.MeanResponseNs / mH.MeanResponseNs
	if rel < 0.8 || rel > 1.35 {
		t.Fatalf("8PS MRT should be near HPS; ratio %.2f", rel)
	}
}

func TestThroughputSweepShape(t *testing.T) {
	pts, err := ThroughputSweep(context.Background(), nil, Scheme4PS, Options{}, []int{4096, 65536, 1048576}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Monotone growth with request size, reads faster than writes.
	for i := range pts {
		if pts[i].ReadMBs != 0 && pts[i].ReadMBs <= pts[i].WriteMBs {
			t.Errorf("size %d: read %.1f MB/s not above write %.1f MB/s",
				pts[i].SizeBytes, pts[i].ReadMBs, pts[i].WriteMBs)
		}
		if i > 0 && pts[i].WriteMBs <= pts[i-1].WriteMBs {
			t.Errorf("write throughput not increasing at %d bytes", pts[i].SizeBytes)
		}
	}
	// Read series must stop past 256 KB.
	if pts[2].ReadMBs != 0 {
		t.Error("read series should stop at 256 KB (largest read in traces)")
	}
}

func TestScaleBlocksOption(t *testing.T) {
	cfg := DeviceConfig(Scheme4PS, Options{ScaleBlocks: 64})
	if cfg.Pools[0].BlocksPerPlane != 16 {
		t.Fatalf("scaled blocks %d, want 16", cfg.Pools[0].BlocksPerPlane)
	}
}

func TestCaseStudyOptions(t *testing.T) {
	opt := CaseStudyOptions()
	if opt.PowerSaving {
		t.Fatal("case study runs without a power model (SSDsim has none)")
	}
	if opt.RAMBufferBytes != 0 {
		t.Fatal("case study: RAM buffer disabled (§V-B)")
	}
}

// TestNewDeviceAllocatesLittle guards construction cost: blocks carry no
// page state until they first open, so a case-study HPS device allocates
// a small fraction of the ~6 MB its flash array's page state would take.
func TestNewDeviceAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewDevice(SchemeHPS, CaseStudyOptions()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("NewDevice allocated %d bytes, budget 1 MiB", got)
	}
}

// BenchmarkNewDevice measures building a case-study HPS device, the cost
// every replay job, sweep cell and file replay pays before its first
// request.
func BenchmarkNewDevice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDevice(SchemeHPS, CaseStudyOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
