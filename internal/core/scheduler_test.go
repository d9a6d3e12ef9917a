package core

import (
	"math"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

func TestScheduledFIFOMatchesReplay(t *testing.T) {
	a := smallTrace()
	mA, err := Replay(Scheme4PS, Options{}, a)
	if err != nil {
		t.Fatal(err)
	}
	b := smallTrace()
	mB, err := ReplayScheduled(Scheme4PS, Options{}, b, SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if mA.MeanResponseNs != mB.MeanResponseNs || mA.NoWaitRatio != mB.NoWaitRatio {
		t.Fatalf("FIFO scheduler diverged from plain replay: %+v vs %+v", mA, mB)
	}

	seq, mSeq := replayFaultyBuffered(t)
	fifo := workload.DefaultRegistry().Lookup(paper.Messaging).Generate(workload.DefaultSeed)
	mFIFO, err := ReplayScheduled(SchemeHPS, faultyBufferedOptions(), fifo, SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if mSeq != mFIFO {
		t.Fatalf("FIFO scheduler Metrics differ from plain replay:\nreplay %+v\nfifo   %+v", mSeq, mFIFO)
	}
	for i := range seq.Reqs {
		if seq.Reqs[i] != fifo.Reqs[i] {
			t.Fatalf("request %d timestamps differ:\nreplay %+v\nfifo   %+v", i, seq.Reqs[i], fifo.Reqs[i])
		}
	}
}

// faultyBufferedOptions is the case-study configuration with fault
// injection and a 1 MiB device RAM buffer, so that faults, retired blocks,
// buffer hits and queueing all show up in Metrics.
func faultyBufferedOptions() Options {
	opt := CaseStudyOptions()
	opt.Faults = &faults.Config{Seed: 7, Rate: 20}
	opt.RAMBufferBytes = 1 << 20
	return opt
}

// replayFaultyBuffered replays Messaging on HPS with faultyBufferedOptions
// through the sequential loop, checking that the fields the other loops
// are compared on are non-trivial.
func replayFaultyBuffered(t *testing.T) (*trace.Trace, Metrics) {
	t.Helper()
	tr := workload.DefaultRegistry().Lookup(paper.Messaging).Generate(workload.DefaultSeed)
	m, err := Replay(SchemeHPS, faultyBufferedOptions(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.ProgramFaults == 0 || m.RetiredBlocks == 0 || m.BufferHitRate == 0 || m.NoWaitRatio == 1 {
		t.Fatalf("configuration does not exercise faults, buffer and queueing: %+v", m)
	}
	return tr, m
}

// On a typical (high-NoWait) trace, smarter host scheduling changes almost
// nothing — Implication 1's point about OS-layer queues.
func TestSchedulingBarelyMattersOnTypicalTrace(t *testing.T) {
	prof := workload.DefaultRegistry().Lookup(paper.Twitter)
	base := prof.Generate(workload.DefaultSeed)
	mFIFO, err := ReplayScheduled(Scheme4PS, CaseStudyOptions(), base.Clone(), SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	sjf := base.Clone()
	sjf.ClearTimestamps()
	mSJF, err := ReplayScheduled(Scheme4PS, CaseStudyOptions(), sjf, SchedSJF)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(mSJF.MeanResponseNs-mFIFO.MeanResponseNs) / mFIFO.MeanResponseNs
	if rel > 0.10 {
		t.Fatalf("SJF moved Twitter MRT by %.1f%%; queues should be empty (NoWait %.0f%%)",
			rel*100, mFIFO.NoWaitRatio*100)
	}
}

// On a saturated synthetic burst, SJF does help — the contrast that shows
// the mechanism only matters when queues actually form.
func TestSJFHelpsUnderSaturation(t *testing.T) {
	mk := func() *trace.Trace {
		tr := &trace.Trace{Name: "burst"}
		at := int64(0)
		for i := 0; i < 300; i++ {
			at += 300_000 // 0.3 ms apart: far below service time
			size := uint32(4096)
			if i%10 == 0 {
				size = 256 * 1024
			}
			tr.Reqs = append(tr.Reqs, trace.Request{
				Arrival: at, LBA: uint64(i) * 4096, Size: size, Op: trace.Write,
			})
		}
		return tr
	}
	mFIFO, err := ReplayScheduled(Scheme4PS, Options{}, mk(), SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	mSJF, err := ReplayScheduled(Scheme4PS, Options{}, mk(), SchedSJF)
	if err != nil {
		t.Fatal(err)
	}
	if mSJF.MeanResponseNs >= mFIFO.MeanResponseNs {
		t.Fatalf("SJF MRT %.2f not below FIFO %.2f under saturation",
			mSJF.MeanResponseNs/1e6, mFIFO.MeanResponseNs/1e6)
	}
}

func TestReadFirstPolicy(t *testing.T) {
	tr := &trace.Trace{Name: "rw"}
	// A big write followed immediately by a read and another write: with
	// read-first, the read jumps the second write.
	tr.Reqs = []trace.Request{
		{Arrival: 0, LBA: 0, Size: 128 * 1024, Op: trace.Write},
		{Arrival: 1, LBA: 8000, Size: 4096, Op: trace.Write},
		{Arrival: 2, LBA: 16000, Size: 4096, Op: trace.Read},
	}
	m, err := ReplayScheduled(Scheme4PS, Options{}, tr, SchedReadFirst)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 3 {
		t.Fatal("not all served")
	}
	// After arrival-order restore, index 2 is the read; it must have been
	// serviced before the second write.
	if tr.Reqs[2].ServiceStart > tr.Reqs[1].ServiceStart {
		t.Fatal("read did not jump the queue under read-first policy")
	}
}

func TestSchedPolicyStrings(t *testing.T) {
	if SchedFIFO.String() != "FIFO" || SchedSJF.String() != "SJF" || SchedReadFirst.String() != "read-first" {
		t.Fatal("policy names drifted")
	}
}
