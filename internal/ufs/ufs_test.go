package ufs

import (
	"bytes"
	"reflect"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// Compile-time: the UFS model satisfies the backend-neutral seam.
var _ storage.Device = (*Device)(nil)

func testTiming() flash.Timing {
	return flash.Timing{
		PerPage: map[int]flash.OpTiming{
			4096: {ReadNs: 160_000, ProgramNs: 1_385_000},
			8192: {ReadNs: 244_000, ProgramNs: 1_491_000},
		},
		EraseNs:           3_800_000,
		TransferNsPerByte: 2,
		CmdOverheadNs:     5_000,
		RequestOverheadNs: 20_000,
		PipelineFactor:    0.5,
		ChannelInterleave: true,
	}
}

func testConfig() Config {
	return Config{
		Geometry: flash.Geometry{Channels: 4, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2},
		Timing:   testTiming(),
		Pools: []flash.PoolSpec{
			{PageBytes: 8192, BlocksPerPlane: 64, PagesPerBlock: 64},
			{PageBytes: 4096, BlocksPerPlane: 64, PagesPerBlock: 64},
		},
		GCFreeBlocks:      2,
		Queues:            2,
		QueueDepth:        8,
		WriteBoosterBytes: 1 << 20,
	}
}

func wr(at int64, lba uint64, size uint32) trace.Request {
	return trace.Request{Arrival: at, Op: trace.Write, LBA: lba, Size: size}
}

func rd(at int64, lba uint64, size uint32) trace.Request {
	return trace.Request{Arrival: at, Op: trace.Read, LBA: lba, Size: size}
}

// workload produces a deterministic mixed request sequence.
func workload(n int) []trace.Request {
	var reqs []trace.Request
	at := int64(0)
	for i := 0; i < n; i++ {
		lba := uint64((i * 7) % 256 * trace.SectorsPerPage)
		size := uint32(4096 * (1 + i%4))
		if i%3 == 2 {
			reqs = append(reqs, rd(at, lba, size))
		} else {
			reqs = append(reqs, wr(at, lba, size))
		}
		at += int64(50_000 * (1 + i%5))
	}
	return reqs
}

func replay(t *testing.T, d *Device, reqs []trace.Request) []storage.Result {
	t.Helper()
	out := make([]storage.Result, 0, len(reqs))
	for _, r := range reqs {
		res, err := d.Submit(r)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		out = append(out, res)
	}
	return out
}

// TestDeterminism: the same workload on the same config and fault seed
// produces bit-identical results and metrics.
func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faults.Config{Rate: 0.5, Seed: 11}
	reqs := workload(300)
	var runs [2][]storage.Result
	var mets [2]storage.Metrics
	for i := range runs {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = replay(t, d, reqs)
		mets[i] = d.Metrics()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("results differ between identical runs")
	}
	if mets[0] != mets[1] {
		t.Fatalf("metrics differ: %+v vs %+v", mets[0], mets[1])
	}
}

// TestOutOfOrderCompletion: with free command slots, a short read admitted
// after a long write completes first — the queued interface the paper's
// Implication 1 anticipates.
func TestOutOfOrderCompletion(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One 8K write occupies a single plane; the read lands on the next
	// round-robin plane, so only slot admission could serialize them.
	w, err := d.Submit(wr(0, 0, 8192))
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Submit(rd(0, 1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if r.Waited {
		t.Fatalf("read waited despite free command slots")
	}
	if r.Finish >= w.Finish {
		t.Fatalf("read (finish %d) did not overtake write (finish %d)", r.Finish, w.Finish)
	}
}

// TestQueueFullWaits: with every slot busy, the next command waits.
func TestQueueFullWaits(t *testing.T) {
	cfg := testConfig()
	cfg.Queues, cfg.QueueDepth = 1, 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Submit(wr(0, uint64(i*64)*trace.SectorsPerPage, 32*1024)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Submit(rd(0, 1<<20, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Waited {
		t.Fatalf("third command did not wait with both slots busy")
	}
}

// TestBoosterReadHit: a read of booster-held sectors is served from SLC and
// counts as a buffer hit.
func TestBoosterReadHit(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(wr(0, 0, 8192)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(rd(0, 0, 8192)); err != nil {
		t.Fatal(err)
	}
	if hr := d.BufferHitRate(); hr != 1 {
		t.Fatalf("booster hit rate = %v, want 1", hr)
	}
	if d.Metrics().BufferedWrites == 0 {
		t.Fatalf("write did not land in the booster")
	}
}

// TestFlushDrainsBooster: a flush barrier migrates all booster content.
func TestFlushDrainsBooster(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := d.Submit(wr(0, uint64(i*2)*trace.SectorsPerPage, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if d.StagedBytes() == 0 {
		t.Fatalf("booster empty before flush")
	}
	if _, err := d.Flush(0); err != nil {
		t.Fatal(err)
	}
	if b := d.StagedBytes(); b != 0 {
		t.Fatalf("booster not drained by flush: %d bytes", b)
	}
	if d.Metrics().DestageStallNs == 0 {
		t.Fatalf("flush drain charged no stall time")
	}
}

// TestSnapshotRoundTrip: a snapshot taken mid-replay restores the command
// slots and the booster queue exactly, and the restored device continues
// bit-identically with the original.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = &faults.Config{Rate: 0.5, Seed: 3}
	reqs := workload(200)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, d, reqs[:120])
	if d.StagedBytes() == 0 {
		t.Fatalf("test needs booster content at the snapshot point")
	}

	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(r.slots, d.slots) {
		t.Fatalf("command slots not restored: %v vs %v", r.slots, d.slots)
	}
	if !bytes.Equal(r.AppendState(nil), d.AppendState(nil)) {
		t.Fatalf("back end state (booster queue, cursors, FTL) not restored")
	}
	if r.StagedBytes() != d.StagedBytes() {
		t.Fatalf("booster occupancy: restored %d, want %d", r.StagedBytes(), d.StagedBytes())
	}
	if r.Metrics() != d.Metrics() {
		t.Fatalf("metrics not restored")
	}

	restRes := replay(t, r, reqs[120:])
	origRes := replay(t, d, reqs[120:])
	if !reflect.DeepEqual(restRes, origRes) {
		t.Fatalf("restored device diverged from original after resume")
	}
	if r.Metrics() != d.Metrics() {
		t.Fatalf("metrics diverged after resume")
	}
}

// TestCaps: UFS advertises the queued, unpacked interface.
func TestCaps(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	caps := d.Caps()
	if caps.Backend != storage.BackendUFS || caps.PackedCommands || caps.QueueDepth != 16 {
		t.Fatalf("caps = %+v", caps)
	}
}

// A hostile queue shape is rejected before any slot is allocated: a job
// spec naming 2^40 slots used to exhaust memory in New.
func TestQueueShapeBounded(t *testing.T) {
	for _, shape := range [][2]int{{1, 1 << 40}, {1 << 40, 1}, {1 << 9, 1 << 8}} {
		cfg := testConfig()
		cfg.Queues, cfg.QueueDepth = shape[0], shape[1]
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %dx%d command slots", shape[0], shape[1])
		}
	}
	cfg := testConfig()
	cfg.Queues, cfg.QueueDepth = 1<<8, 1<<8
	if _, err := New(cfg); err != nil {
		t.Errorf("New rejected %d slots: %v", 1<<16, err)
	}
}
