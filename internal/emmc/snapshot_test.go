package emmc

import (
	"bytes"
	"testing"

	"emmcio/internal/trace"
)

// Snapshot equivalence: interrupting a replay with a snapshot/restore cycle
// must leave the remainder of the replay byte-identical to an uninterrupted
// run — the FTL mapping, wear, timing cursors, and metrics all survive.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	mkReqs := func() []trace.Request {
		var reqs []trace.Request
		at := int64(0)
		for i := 0; i < 400; i++ {
			at += int64(1_000_000 + i*10_000)
			op := trace.Write
			if i%3 == 0 {
				op = trace.Read
			}
			reqs = append(reqs, trace.Request{
				Arrival: at,
				LBA:     uint64(i%50) * 64,
				Size:    uint32((i%4 + 1) * 4096),
				Op:      op,
			})
		}
		return reqs
	}

	// Uninterrupted run.
	ref, _ := New(cfgHPS())
	var refResults []Result
	for _, r := range mkReqs() {
		res, err := ref.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		refResults = append(refResults, res)
	}

	// Interrupted run: snapshot at the halfway point, restore, continue.
	half := 200
	dev, _ := New(cfgHPS())
	reqs := mkReqs()
	var gotResults []Result
	for _, r := range reqs[:half] {
		res, err := dev.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		gotResults = append(gotResults, res)
	}
	var buf bytes.Buffer
	if err := dev.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs[half:] {
		res, err := restored.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		gotResults = append(gotResults, res)
	}

	for i := range refResults {
		if refResults[i] != gotResults[i] {
			t.Fatalf("request %d diverged after restore:\nref %+v\ngot %+v",
				i, refResults[i], gotResults[i])
		}
	}
	if rm, gm := ref.Metrics(), restored.Metrics(); rm != gm {
		t.Fatalf("metrics diverged:\nref %+v\ngot %+v", rm, gm)
	}
	if rs, gs := ref.FTLStats(), restored.FTLStats(); rs != gs {
		t.Fatalf("FTL stats diverged:\nref %+v\ngot %+v", rs, gs)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSnapshotPreservesWear(t *testing.T) {
	c := cfg4K()
	c.Pools[0].BlocksPerPlane = 8
	c.Pools[0].PagesPerBlock = 16
	dev, _ := New(c)
	at := int64(0)
	for i := 0; i < 3000; i++ {
		at += 1_000_000
		if _, err := dev.Submit(wr(at, uint64(i%16)*8, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Wear(0)
	if before.TotalErases == 0 {
		t.Fatal("workload produced no wear")
	}
	var buf bytes.Buffer
	if err := dev.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if after := restored.Wear(0); after != before {
		t.Fatalf("wear changed across snapshot: %+v vs %+v", before, after)
	}
}

// A snapshot keeps the write buffer's content: a device holding buffered
// writes snapshots, restores with the same buffer, re-snapshots to the
// same bytes, and continues exactly like the original — destaging the
// same writes in the same order.
func TestSnapshotKeepsBufferedWrites(t *testing.T) {
	dev, _ := New(cfgBuffered(1 << 20))
	for i := 0; i < 4; i++ {
		if _, err := dev.Submit(wr(int64(i)*100_000, uint64(i)*64, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if dev.StagedBytes() == 0 {
		t.Fatal("test needs buffered writes at the snapshot point")
	}
	var buf bytes.Buffer
	if err := dev.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot with buffered writes: %v", err)
	}
	sealed := append([]byte(nil), buf.Bytes()...)
	restored, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.StagedBytes() != dev.StagedBytes() {
		t.Fatalf("restored write buffer holds %d bytes, want %d", restored.StagedBytes(), dev.StagedBytes())
	}
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), sealed) {
		t.Fatalf("restored device re-snapshots differently (err %v)", err)
	}
	fl, err := dev.Flush(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rfl, err := restored.Flush(1_000_000); err != nil || rfl != fl {
		t.Fatalf("flush of the restored buffer = %+v (%v), want %+v", rfl, err, fl)
	}
	at := fl.Finish
	for i := 0; i < 200; i++ {
		at += int64(200_000 + i%7*3_000_000)
		req := wr(at, uint64(i%40)*16, uint32(4096*(1+i%3)))
		if i%4 == 0 {
			req.Op = trace.Read
		}
		a, errA := dev.Submit(req)
		b, errB := restored.Submit(req)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("request %d: original %+v (%v), restored %+v (%v)", i, a, errA, b, errB)
		}
	}
	if dev.Metrics() != restored.Metrics() || dev.Metrics().BufferedWrites == 0 {
		t.Fatalf("metrics diverged after resume:\n%+v\n%+v", dev.Metrics(), restored.Metrics())
	}
}
