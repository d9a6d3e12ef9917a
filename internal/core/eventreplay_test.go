package core

import (
	"testing"

	"emmcio/internal/paper"
	"emmcio/internal/workload"
)

// The event-driven and sequential replay engines are independent
// implementations of the same semantics: identical timestamps on every
// request of every scheme, for a real application trace.
func TestEventDrivenMatchesSequential(t *testing.T) {
	prof := workload.DefaultRegistry().Lookup(paper.Messaging)
	for _, s := range Schemes {
		seq := prof.Generate(workload.DefaultSeed)
		mSeq, err := Replay(s, CaseStudyOptions(), seq)
		if err != nil {
			t.Fatal(err)
		}
		ev := prof.Generate(workload.DefaultSeed)
		mEv, err := ReplayEventDriven(s, CaseStudyOptions(), ev)
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
	mEv, err := ReplayEventDriven(SchemeHPS, faultyBufferedOptions(), ev)
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
	mSeq, err := Replay(Scheme4PS, opt, seq)
	if err != nil {
		t.Fatal(err)
	}
	ev := prof.Generate(workload.DefaultSeed)
	mEv, err := ReplayEventDriven(Scheme4PS, opt, ev)
	if err != nil {
		t.Fatal(err)
	}
	if mSeq != mEv {
		t.Fatalf("engines disagree with power+buffer:\n%+v\n%+v", mSeq, mEv)
	}
}

func TestEventDrivenEmptyTrace(t *testing.T) {
	m, err := ReplayEventDriven(Scheme4PS, Options{}, smallTrace().Window(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 {
		t.Fatal("served requests from an empty trace")
	}
}
