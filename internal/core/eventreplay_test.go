package core

import (
	"context"
	"testing"

	"emmcio/internal/paper"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// The event-driven and sequential replay engines are independent
// implementations of the same semantics: identical timestamps on every
// request of every scheme, for a real application trace.
func TestEventDrivenMatchesSequential(t *testing.T) {
	prof := workload.DefaultRegistry().Lookup(paper.Messaging)
	for _, s := range Schemes {
		seq := prof.Generate(workload.DefaultSeed)
		mSeq, err := replayTrace(s, CaseStudyOptions(), seq)
		if err != nil {
			t.Fatal(err)
		}
		ev := prof.Generate(workload.DefaultSeed)
		mEv, err := replaySlice(replayEventDriven, s, CaseStudyOptions(), ev)
		if err != nil {
			t.Fatal(err)
		}
		if mSeq.MeanResponseNs != mEv.MeanResponseNs || mSeq.NoWaitRatio != mEv.NoWaitRatio ||
			mSeq.SpaceUtilization != mEv.SpaceUtilization {
			t.Fatalf("%s: engines disagree: %+v vs %+v", s, mSeq, mEv)
		}
		for i := range seq.Reqs {
			if seq.Reqs[i] != ev.Reqs[i] {
				t.Fatalf("%s: request %d timestamps differ:\nseq %+v\nev  %+v",
					s, i, seq.Reqs[i], ev.Reqs[i])
			}
		}
	}

	seq, mSeq := replayFaultyBuffered(t)
	ev := prof.Generate(workload.DefaultSeed)
	mEv, err := replaySlice(replayEventDriven, SchemeHPS, faultyBufferedOptions(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if mSeq != mEv {
		t.Fatalf("engines' Metrics differ with faults and buffer:\nseq %+v\nev  %+v", mSeq, mEv)
	}
	for i := range seq.Reqs {
		if seq.Reqs[i] != ev.Reqs[i] {
			t.Fatalf("request %d timestamps differ:\nseq %+v\nev  %+v", i, seq.Reqs[i], ev.Reqs[i])
		}
	}
}

func TestEventDrivenWithPowerAndBuffer(t *testing.T) {
	prof := workload.DefaultRegistry().Lookup(paper.YouTube)
	opt := Options{PowerSaving: true, RAMBufferBytes: 4 << 20}
	seq := prof.Generate(workload.DefaultSeed)
	mSeq, err := replayTrace(Scheme4PS, opt, seq)
	if err != nil {
		t.Fatal(err)
	}
	ev := prof.Generate(workload.DefaultSeed)
	mEv, err := replaySlice(replayEventDriven, Scheme4PS, opt, ev)
	if err != nil {
		t.Fatal(err)
	}
	if mSeq != mEv {
		t.Fatalf("engines disagree with power+buffer:\n%+v\n%+v", mSeq, mEv)
	}
}

func TestEventDrivenEmptyTrace(t *testing.T) {
	m, err := replaySlice(replayEventDriven, Scheme4PS, Options{}, smallTrace().Window(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 {
		t.Fatal("served requests from an empty trace")
	}
}

func BenchmarkEventDrivenReplay(b *testing.B) {
	prof := workload.DefaultRegistry().Lookup(paper.Messaging)
	for i := 0; i < b.N; i++ {
		tr := prof.Generate(workload.DefaultSeed)
		dev, err := NewDevice(Scheme4PS, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := replayEventDriven(context.Background(), dev, Scheme4PS, trace.FromSlice(tr), nil); err != nil {
			b.Fatal(err)
		}
	}
}
