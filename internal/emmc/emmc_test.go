package emmc

import (
	"testing"
	"testing/quick"

	"emmcio/internal/flash"
	"emmcio/internal/reliability"
	"emmcio/internal/trace"
)

func testTiming() flash.Timing {
	return flash.Timing{
		PerPage: map[int]flash.OpTiming{
			4096: {ReadNs: 160_000, ProgramNs: 1_385_000},
			8192: {ReadNs: 244_000, ProgramNs: 1_491_000},
		},
		EraseNs:           3_800_000,
		TransferNsPerByte: 5,
		CmdOverheadNs:     25_000,
		RequestOverheadNs: 100_000,
		PipelineFactor:    0.65,
	}
}

func cfg4K() Config {
	return Config{
		Geometry:     flash.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 2},
		Timing:       testTiming(),
		Pools:        []flash.PoolSpec{{PageBytes: 4096, BlocksPerPlane: 64, PagesPerBlock: 32}},
		GCFreeBlocks: 2,
	}
}

func cfgHPS() Config {
	c := cfg4K()
	c.Pools = []flash.PoolSpec{
		{PageBytes: 8192, BlocksPerPlane: 32, PagesPerBlock: 32},
		{PageBytes: 4096, BlocksPerPlane: 32, PagesPerBlock: 32},
	}
	return c
}

func wr(at int64, lba uint64, size uint32) trace.Request {
	return trace.Request{Arrival: at, LBA: lba, Size: size, Op: trace.Write}
}

func rd(at int64, lba uint64, size uint32) trace.Request {
	return trace.Request{Arrival: at, LBA: lba, Size: size, Op: trace.Read}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := cfgHPS()
	bad.Pools[0], bad.Pools[1] = bad.Pools[1], bad.Pools[0]
	if _, err := New(bad); err == nil {
		t.Fatal("pools not largest-first accepted")
	}
	noTiming := cfg4K()
	noTiming.Pools[0].PageBytes = 16384
	if _, err := New(noTiming); err == nil {
		t.Fatal("pool without timing accepted")
	}
}

func TestSubmitRejectsUnaligned(t *testing.T) {
	d, _ := New(cfg4K())
	if _, err := d.Submit(wr(0, 0, 1000)); err == nil {
		t.Fatal("unaligned size accepted")
	}
	if _, err := d.Submit(wr(0, 0, 0)); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestSingleWriteTiming(t *testing.T) {
	d, _ := New(cfg4K())
	res, err := d.Submit(wr(0, 0, 4096))
	if err != nil {
		t.Fatal(err)
	}
	tm := testTiming()
	want := tm.RequestOverheadNs + tm.Transfer(4096) + tm.Program(4096)
	if res.Finish-res.ServiceStart != want {
		t.Fatalf("service time %d, want %d", res.Finish-res.ServiceStart, want)
	}
	if res.Waited {
		t.Fatal("first request should not wait")
	}
}

func TestFIFOQueueing(t *testing.T) {
	d, _ := New(cfg4K())
	r1, _ := d.Submit(wr(0, 0, 4096))
	r2, err := d.Submit(wr(1, 8, 4096)) // arrives while r1 in service
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Waited {
		t.Fatal("overlapping request should wait")
	}
	if r2.ServiceStart != r1.Finish {
		t.Fatalf("r2 started at %d, want %d (FIFO)", r2.ServiceStart, r1.Finish)
	}
	m := d.Metrics()
	if m.Served != 2 || m.NoWait != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestNoWaitWhenSpaced(t *testing.T) {
	d, _ := New(cfg4K())
	d.Submit(wr(0, 0, 4096))
	res, _ := d.Submit(wr(1_000_000_000, 8, 4096))
	if res.Waited {
		t.Fatal("well-spaced request should not wait")
	}
	if got := d.Metrics().NoWaitRatio(); got != 1.0 {
		t.Fatalf("NoWaitRatio %v, want 1.0", got)
	}
}

// Large requests finish faster on 8 KB pages than on 4 KB pages — the
// mechanism behind Fig. 8's HPS gains.
func TestLargeWriteFasterOnLargePages(t *testing.T) {
	d4, _ := New(cfg4K())
	c8 := cfg4K()
	c8.Pools = []flash.PoolSpec{{PageBytes: 8192, BlocksPerPlane: 32, PagesPerBlock: 32}}
	d8, _ := New(c8)

	const size = 256 * 1024
	r4, err4 := d4.Submit(wr(0, 0, size))
	r8, err8 := d8.Submit(wr(0, 0, size))
	if err4 != nil || err8 != nil {
		t.Fatal(err4, err8)
	}
	s4 := r4.Finish - r4.ServiceStart
	s8 := r8.Finish - r8.ServiceStart
	if s8 >= s4 {
		t.Fatalf("256KB write: 8K pages %d ns, 4K pages %d ns; want 8K faster", s8, s4)
	}
	if ratio := float64(s8) / float64(s4); ratio > 0.75 {
		t.Fatalf("8K/4K service ratio %.2f, want well under 1 for large writes", ratio)
	}
}

// A single-page write is slower on 8 KB pages (1491 vs 1385 µs program),
// the §V argument for keeping 4 KB blocks in HPS.
func TestSmallWriteSlowerOnLargePages(t *testing.T) {
	d4, _ := New(cfg4K())
	c8 := cfg4K()
	c8.Pools = []flash.PoolSpec{{PageBytes: 8192, BlocksPerPlane: 32, PagesPerBlock: 32}}
	d8, _ := New(c8)
	r4, _ := d4.Submit(wr(0, 0, 4096))
	r8, _ := d8.Submit(wr(0, 0, 4096))
	if r8.Finish-r8.ServiceStart <= r4.Finish-r4.ServiceStart {
		t.Fatal("4KB write should be slower on 8KB pages")
	}
}

// HPS routes a 20 KB write as 2x8KB + 1x4KB with no wasted space (§V-A's
// worked example).
func TestHPSSplitNoWaste(t *testing.T) {
	d, _ := New(cfgHPS())
	if _, err := d.Submit(wr(0, 0, 20*1024)); err != nil {
		t.Fatal(err)
	}
	s := d.FTLStats()
	if s.HostPayloadBytes != 20*1024 || s.HostFootprintBytes != 20*1024 {
		t.Fatalf("payload/footprint %d/%d, want 20480/20480", s.HostPayloadBytes, s.HostFootprintBytes)
	}
	if s.HostProgrammedPages != 3 {
		t.Fatalf("%d pages programmed, want 3 (8+8+4)", s.HostProgrammedPages)
	}
}

// On pure 8 KB pages the same 20 KB write consumes 24 KB: utilization 83.3%.
func TestPure8KWaste(t *testing.T) {
	c8 := cfg4K()
	c8.Pools = []flash.PoolSpec{{PageBytes: 8192, BlocksPerPlane: 32, PagesPerBlock: 32}}
	d, _ := New(c8)
	d.Submit(wr(0, 0, 20*1024))
	s := d.FTLStats()
	if s.HostFootprintBytes != 24*1024 {
		t.Fatalf("footprint %d, want 24576", s.HostFootprintBytes)
	}
	got := s.SpaceUtilization()
	if got < 0.833 || got > 0.834 {
		t.Fatalf("space utilization %.4f, want 0.8333 (paper's example)", got)
	}
}

// Read-after-write goes to the written location and is faster than writing.
func TestReadAfterWrite(t *testing.T) {
	d, _ := New(cfg4K())
	w, _ := d.Submit(wr(0, 0, 65536))
	r, err := d.Submit(rd(w.Finish+1, 0, 65536))
	if err != nil {
		t.Fatal(err)
	}
	if r.Finish-r.ServiceStart >= w.Finish-w.ServiceStart {
		t.Fatal("read should be faster than write (160 vs 1385 µs/page)")
	}
}

func TestReadOfUnwrittenData(t *testing.T) {
	d, _ := New(cfg4K())
	r, err := d.Submit(rd(0, 80000, 16384))
	if err != nil {
		t.Fatal(err)
	}
	if r.Finish <= r.ServiceStart {
		t.Fatal("unmapped read must still take time")
	}
}

// Power model: a request after a long gap pays a wake penalty; deep sleep
// costs more than light sleep (Characteristic 4).
func TestPowerModeWakePenalties(t *testing.T) {
	c := cfg4K()
	c.PowerSaving = true
	c.LightSleepAfter = 200 * 1_000_000  // 200 ms
	c.LightWake = 2 * 1_000_000          // 2 ms
	c.DeepSleepAfter = 5_000 * 1_000_000 // 5 s
	c.DeepWake = 8 * 1_000_000           // 8 ms
	d, _ := New(c)

	r0, _ := d.Submit(wr(0, 0, 4096))
	base := r0.Finish - r0.ServiceStart

	// Within the light threshold: no penalty.
	r1, _ := d.Submit(wr(r0.Finish+100*1_000_000, 8, 4096))
	if r1.Finish-r1.ServiceStart != base {
		t.Fatal("no-sleep request should match base service time")
	}
	// Past light threshold.
	r2, _ := d.Submit(wr(r1.Finish+300*1_000_000, 16, 4096))
	if got := r2.Finish - r2.ServiceStart; got != base+c.LightWake {
		t.Fatalf("light wake service %d, want %d", got, base+c.LightWake)
	}
	// Past deep threshold.
	r3, _ := d.Submit(wr(r2.Finish+6_000*1_000_000, 24, 4096))
	if got := r3.Finish - r3.ServiceStart; got != base+c.DeepWake {
		t.Fatalf("deep wake service %d, want %d", got, base+c.DeepWake)
	}
	m := d.Metrics()
	if m.LightWakes != 1 || m.DeepWakes != 1 {
		t.Fatalf("wake counts %+v", m)
	}
}

// GC policies: under sustained small overwrites the foreground policy
// charges GC stalls to requests, while the idle policy absorbs GC into
// inter-arrival gaps (Implication 2).
func TestIdleGCAbsorbsStalls(t *testing.T) {
	run := func(policy GCPolicy) Metrics {
		c := cfg4K()
		c.Pools[0].BlocksPerPlane = 8
		c.Pools[0].PagesPerBlock = 16
		c.GCPolicy = policy
		d, _ := New(c)
		at := int64(0)
		for i := 0; i < 4000; i++ {
			at += 50 * 1_000_000 // 50 ms gaps: plenty of idle time
			if _, err := d.Submit(wr(at, uint64(i%32)*8, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		return d.Metrics()
	}
	fg := run(GCForeground)
	idle := run(GCIdle)
	if fg.GCStallNs == 0 {
		t.Fatal("foreground policy never stalled; workload should trigger GC")
	}
	if idle.IdleGCNs == 0 {
		t.Fatal("idle policy never used idle time")
	}
	if idle.GCStallNs >= fg.GCStallNs {
		t.Fatalf("idle policy stalls (%d ns) not below foreground (%d ns)",
			idle.GCStallNs, fg.GCStallNs)
	}
	if idle.MeanResponseNs() >= fg.MeanResponseNs() {
		t.Fatalf("idle-GC MRT %.0f not below foreground MRT %.0f",
			idle.MeanResponseNs(), fg.MeanResponseNs())
	}
}

// Property: timestamps are always causally ordered and the device never
// travels back in time, for any request stream.
func TestCausalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		d, _ := New(cfgHPS())
		x := uint64(seed)
		at := int64(0)
		var prevFinish int64
		for i := 0; i < 200; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			at += int64(x % 2_000_000)
			pages := int(x%16) + 1
			req := trace.Request{
				Arrival: at,
				LBA:     uint64(x%100000) * 8,
				Size:    uint32(pages * 4096),
				Op:      trace.Op(x % 2),
			}
			res, err := d.Submit(req)
			if err != nil {
				return false
			}
			if res.ServiceStart < at || res.Finish <= res.ServiceStart {
				return false
			}
			if res.ServiceStart < prevFinish && !res.Waited {
				return false
			}
			prevFinish = res.Finish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitWriteShapes(t *testing.T) {
	d, _ := New(cfgHPS())
	lpns := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	// 20 KB = 5 sectors -> 8K(2) + 8K(2) + 4K(1).
	chunks, _ := d.SplitWrite(0, lpns(5))
	if len(chunks) != 3 || chunks[0].PageBytes != 8192 || chunks[2].PageBytes != 4096 {
		t.Fatalf("20KB split %+v", chunks)
	}
	// 4 KB -> single 4K chunk.
	chunks, _ = d.SplitWrite(0, lpns(1))
	if len(chunks) != 1 || chunks[0].PageBytes != 4096 {
		t.Fatalf("4KB split %+v", chunks)
	}
	// Pure-8K device pads the tail.
	c8 := cfg4K()
	c8.Pools = []flash.PoolSpec{{PageBytes: 8192, BlocksPerPlane: 32, PagesPerBlock: 32}}
	d8, _ := New(c8)
	chunks, _ = d8.SplitWrite(0, lpns(5))
	if len(chunks) != 3 {
		t.Fatalf("pure-8K 20KB split %+v", chunks)
	}
	if len(chunks[2].LPNs) != 1 {
		t.Fatal("tail chunk should hold one sector on a padded 8K page")
	}
}

// Property: splitter conserves sectors and never emits an oversized chunk.
func TestSplitWriteConservationProperty(t *testing.T) {
	d, _ := New(cfgHPS())
	f := func(n uint8) bool {
		count := int(n)%64 + 1
		lpns := make([]int64, count)
		for i := range lpns {
			lpns[i] = int64(i)
		}
		total := 0
		chunks, _ := d.SplitWrite(0, lpns)
		for _, c := range chunks {
			if len(c.LPNs) == 0 || len(c.LPNs)*4096 > c.PageBytes {
				return false
			}
			total += len(c.LPNs)
		}
		return total == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitPackedSharedOverhead(t *testing.T) {
	// Two 4K writes packed together pay the per-request firmware overhead
	// once; submitted separately they pay it twice.
	mk := func() *Device {
		d, err := New(cfg4K())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	packed := mk()
	res, err := packed.SubmitPacked(10, []trace.Request{
		wr(0, 0, 4096), wr(5, 1<<20, 4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	packedEnd := res[len(res)-1].Finish

	solo := mk()
	r1, _ := solo.Submit(wr(0, 0, 4096))
	// Force back-to-back service from the same dispatch instant.
	req2 := wr(5, 1<<20, 4096)
	req2.Arrival = 10
	_ = r1
	r2, _ := solo.Submit(req2)
	if packedEnd >= r2.Finish {
		t.Fatalf("packed command (%d ns) not faster than two commands (%d ns)", packedEnd, r2.Finish)
	}
	if m := packed.Metrics(); m.Served != 2 {
		t.Fatalf("packed members served = %d, want 2", m.Served)
	}
}

func TestSubmitPackedValidation(t *testing.T) {
	d, _ := New(cfg4K())
	if _, err := d.SubmitPacked(0, nil); err == nil {
		t.Fatal("empty pack accepted")
	}
	if _, err := d.SubmitPacked(0, []trace.Request{wr(5, 0, 4096)}); err == nil {
		t.Fatal("member arriving after dispatch accepted")
	}
	if _, err := d.SubmitPacked(5, []trace.Request{wr(0, 0, 1000)}); err == nil {
		t.Fatal("unaligned member accepted")
	}
}

// An SLC-mode pool device serves 4K writes faster than the MLC baseline.
func TestSLCModePoolFaster(t *testing.T) {
	slcCfg := cfg4K()
	slcCfg.Pools[0].SLCMode = true
	slcCfg.Pools[0].PagesPerBlock /= 2
	slc, err := New(slcCfg)
	if err != nil {
		t.Fatal(err)
	}
	mlc, _ := New(cfg4K())
	rs, _ := slc.Submit(wr(0, 0, 4096))
	rm, _ := mlc.Submit(wr(0, 0, 4096))
	if rs.Finish-rs.ServiceStart >= rm.Finish-rm.ServiceStart {
		t.Fatal("SLC-mode write not faster than MLC")
	}
}

// Wear-dependent read retries: a pre-aged device serves reads slower than a
// fresh one; writes are unaffected.
func TestReliabilityAgedReadsSlower(t *testing.T) {
	rel := reliability.Default()
	run := func(wear int64) (readNs, writeNs int64) {
		c := cfg4K()
		c.Reliability = rel
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if wear > 0 {
			// Average PE = wear / total blocks.
			d.AddArtificialWear(0, wear)
		}
		w, _ := d.Submit(wr(0, 0, 4096))
		r, _ := d.Submit(rd(w.Finish+1_000_000, 0, 4096))
		return r.Finish - r.ServiceStart, w.Finish - w.ServiceStart
	}
	freshR, freshW := run(0)
	// cfg4K has 64 blocks/plane x 8 planes = 512 blocks; push avg PE well
	// past endurance.
	agedR, agedW := run(512 * 2 * 3000)
	if agedR <= freshR {
		t.Fatalf("aged read %d ns not above fresh %d ns", agedR, freshR)
	}
	if agedW != freshW {
		t.Fatalf("write latency changed with wear: %d vs %d", agedW, freshW)
	}
}

// Smartphone-like request spacing leaves the device almost entirely idle —
// the quantitative core of Implications 1 and 2.
func TestUtilizationMostlyIdle(t *testing.T) {
	d, _ := New(cfg4K())
	at := int64(0)
	for i := 0; i < 100; i++ {
		at += 200_000_000 // 200 ms gaps (Characteristic 6)
		if _, err := d.Submit(wr(at, uint64(i)*800, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	u := d.Utilization()
	if u.Device > 0.05 {
		t.Fatalf("device busy fraction %.3f, want nearly idle", u.Device)
	}
	for i, c := range u.Channels {
		if c > 0.05 {
			t.Fatalf("channel %d busy %.3f", i, c)
		}
	}
	if len(u.Planes) != 8 {
		t.Fatalf("%d planes reported", len(u.Planes))
	}
}

func TestUtilizationEmptyDevice(t *testing.T) {
	d, _ := New(cfg4K())
	if u := d.Utilization(); u.Device != 0 || len(u.Channels) != 0 {
		t.Fatal("fresh device should report zero utilization")
	}
}

// The command queue lets independent requests overlap on different planes,
// but with smartphone-like spacing nothing overlaps anyway.
func TestCommandQueueOverlap(t *testing.T) {
	// Two 4K writes arriving together: FIFO serializes them on the device,
	// CQ overlaps them on different planes.
	run := func(cq bool) int64 {
		c := cfg4K()
		c.CommandQueue = cq
		d, _ := New(c)
		r1, _ := d.Submit(wr(0, 0, 4096))
		r2, _ := d.Submit(wr(1, 1<<20, 4096))
		_ = r1
		return r2.Finish
	}
	fifo := run(false)
	cq := run(true)
	if cq >= fifo {
		t.Fatalf("CQ finish %d not below FIFO %d for overlapping requests", cq, fifo)
	}
}

// Same-plane contention still serializes under the command queue: the
// queue removes the device-level barrier, not the physical one.
func TestCommandQueueStillContends(t *testing.T) {
	c := cfg4K()
	c.CommandQueue = true
	d, _ := New(c)
	// Saturate every plane with a big write, then a small one must queue on
	// the resource level.
	big, _ := d.Submit(wr(0, 0, 256*1024))
	small, _ := d.Submit(wr(1, 1<<21, 4096))
	if small.Finish <= small.ServiceStart+d.cfg.Timing.RequestOverheadNs+d.cfg.Timing.Transfer(4096)+d.cfg.Timing.Program(4096) {
		t.Fatal("small write ignored resource contention entirely")
	}
	_ = big
}

// A flush barrier drains all in-flight work before completing.
func TestFlushDrainsDevice(t *testing.T) {
	d, _ := New(cfg4K())
	w, _ := d.Submit(wr(0, 0, 256*1024))
	fl, err := d.Flush(1) // issued while the big write is in flight
	if err != nil {
		t.Fatal(err)
	}
	if fl.ServiceStart < w.Finish {
		t.Fatalf("flush started at %d before the write drained at %d", fl.ServiceStart, w.Finish)
	}
	if !fl.Waited {
		t.Fatal("flush behind a write should report waiting")
	}
	if m := d.Metrics(); m.Flushes != 1 || m.FlushNs != 500_000 {
		t.Fatalf("flush metrics %+v", m)
	}
}

func TestFlushOnIdleDevice(t *testing.T) {
	c := cfg4K()
	c.FlushNs = 200_000
	d, _ := New(c)
	fl, _ := d.Flush(1_000_000)
	if fl.ServiceStart != 1_000_000 || fl.Finish != 1_200_000 {
		t.Fatalf("idle flush %+v", fl)
	}
}

// Read-ahead serves sequential read streams from RAM, and buys nothing for
// random reads — its payoff is the trace's spatial locality.
func TestReadAheadPrefetch(t *testing.T) {
	mk := func() *Device {
		c := cfg4K()
		c.RAMBufferBytes = 1 << 20
		c.ReadAheadPages = 8
		d, _ := New(c)
		return d
	}
	// Sequential stream: after the first read, the rest hit prefetched data.
	seq := mk()
	at := int64(0)
	var seqTotal int64
	for i := 0; i < 10; i++ {
		at += 100_000_000
		r, err := seq.Submit(rd(at, uint64(i)*8, 4096))
		if err != nil {
			t.Fatal(err)
		}
		seqTotal += r.Finish - r.ServiceStart
	}
	if _, hits := seq.PrefetchStats(); hits == 0 {
		t.Fatal("sequential stream never hit prefetched sectors")
	}

	// Random stream: no prefetch hits.
	rnd := mk()
	at = 0
	var rndTotal int64
	for i := 0; i < 10; i++ {
		at += 100_000_000
		r, err := rnd.Submit(rd(at, uint64((i*7919)%100000)*800, 4096))
		if err != nil {
			t.Fatal(err)
		}
		rndTotal += r.Finish - r.ServiceStart
	}
	if _, hits := rnd.PrefetchStats(); hits != 0 {
		t.Fatal("random stream hit prefetches")
	}
	if seqTotal >= rndTotal {
		t.Fatalf("sequential reads (%d ns) not faster than random (%d ns) with read-ahead", seqTotal, rndTotal)
	}
}
