package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// scheduledFIFO runs the dispatcher loop in FIFO order, which Replay itself
// never does (a FIFO Replay takes replayLoop).
func scheduledFIFO(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, sink func(trace.Request) error) (Metrics, error) {
	return scheduledLoop(ctx, dev, s, st, ReplayOpts{Sink: sink})
}

// TestScheduledFIFOMatchesReplay holds the dispatcher loop in FIFO order to
// replayLoop, the oracle pair for the replay semantics: two independently
// structured loops must give every request the same timestamps and the
// device the same Metrics, on each input below.
func TestScheduledFIFOMatchesReplay(t *testing.T) {
	generate := func(app string) func() *trace.Trace {
		return func() *trace.Trace {
			return workload.DefaultRegistry().Lookup(app).Generate(workload.DefaultSeed)
		}
	}
	// exercised reports whether a replay reached faults, retired blocks,
	// buffer hits and queueing, so the row compares non-trivial fields.
	exercised := func(m Metrics) bool {
		return m.ProgramFaults != 0 && m.RetiredBlocks != 0 && m.BufferHitRate != 0 && m.NoWaitRatio != 1
	}
	cases := []struct {
		name   string
		scheme Scheme
		opt    Options
		trace  func() *trace.Trace
		check  func(Metrics) bool
	}{
		{"small", Scheme4PS, Options{}, smallTrace, nil},
		{"empty", Scheme4PS, Options{}, func() *trace.Trace { return smallTrace().Window(0, 0) }, nil},
		{"Messaging/4PS", Scheme4PS, CaseStudyOptions(), generate(paper.Messaging), nil},
		{"Messaging/8PS", Scheme8PS, CaseStudyOptions(), generate(paper.Messaging), nil},
		{"Messaging/HPS", SchemeHPS, CaseStudyOptions(), generate(paper.Messaging), nil},
		{"Messaging/HPS/faults+buffer", SchemeHPS, faultyBufferedOptions(), generate(paper.Messaging), exercised},
		{"YouTube/4PS/power+buffer", Scheme4PS, Options{PowerSaving: true, RAMBufferBytes: 4 << 20}, generate(paper.YouTube), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, fifo := c.trace(), c.trace()
			mPlain, err := replayTrace(c.scheme, c.opt, plain)
			if err != nil {
				t.Fatal(err)
			}
			mFIFO, err := replaySlice(scheduledFIFO, c.scheme, c.opt, fifo)
			if err != nil {
				t.Fatal(err)
			}
			if mPlain.Served != len(plain.Reqs) {
				t.Fatalf("served %d of %d requests", mPlain.Served, len(plain.Reqs))
			}
			if c.check != nil && !c.check(mPlain) {
				t.Fatalf("configuration does not exercise faults, buffer and queueing: %+v", mPlain)
			}
			if mPlain != mFIFO {
				t.Fatalf("FIFO scheduler Metrics differ from plain replay:\nreplay %+v\nfifo   %+v", mPlain, mFIFO)
			}
			for i := range plain.Reqs {
				if plain.Reqs[i] != fifo.Reqs[i] {
					t.Fatalf("request %d timestamps differ:\nreplay %+v\nfifo   %+v", i, plain.Reqs[i], fifo.Reqs[i])
				}
			}
		})
	}

	// Both loops feed the same core_* series through the shared observer.
	coreSeries := func(loop func(context.Context, storage.Device, Scheme, trace.Stream, ReplayOpts) (Metrics, error)) string {
		t.Helper()
		dev, err := NewDevice(SchemeHPS, faultyBufferedOptions())
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		if _, err := loop(context.Background(), dev, SchemeHPS, trace.FromSlice(generate(paper.Messaging)()), ReplayOpts{Registry: reg}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "core_") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	plain, sched := coreSeries(replayLoop), coreSeries(scheduledLoop)
	if !strings.Contains(plain, "core_requests_total") {
		t.Fatalf("FIFO replay wrote no core_* series:\n%s", plain)
	}
	if plain != sched {
		t.Fatalf("core_* series differ:\nreplay\n%s\nscheduled\n%s", plain, sched)
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

// On a typical (high-NoWait) trace, smarter host scheduling changes almost
// nothing — Implication 1's point about OS-layer queues.
func TestSchedulingBarelyMattersOnTypicalTrace(t *testing.T) {
	prof := workload.DefaultRegistry().Lookup(paper.Twitter)
	base := prof.Generate(workload.DefaultSeed)
	mFIFO, err := replayTrace(Scheme4PS, CaseStudyOptions(), base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	sjf := base.Clone()
	sjf.ClearTimestamps()
	mSJF, err := replaySlice(replayPolicy(SchedSJF), Scheme4PS, CaseStudyOptions(), sjf)
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
	mFIFO, err := replayTrace(Scheme4PS, Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	mSJF, err := replaySlice(replayPolicy(SchedSJF), Scheme4PS, Options{}, mk())
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
	m, err := replaySlice(replayPolicy(SchedReadFirst), Scheme4PS, Options{}, tr)
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
