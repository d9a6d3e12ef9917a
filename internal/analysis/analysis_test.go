package analysis

import (
	"math"
	"testing"

	"emmcio/internal/trace"
)

func replayedTrace() *trace.Trace {
	tr := &trace.Trace{Name: "T"}
	at := int64(0)
	for i := 0; i < 100; i++ {
		at += 10_000_000 // 10 ms apart
		r := trace.Request{
			Arrival: at,
			LBA:     uint64(i) * 8,
			Size:    uint32((i%4 + 1) * 4096),
			Op:      trace.Write,
		}
		if i%4 == 0 {
			r.Op = trace.Read
		}
		r.ServiceStart = r.Arrival
		if i%10 == 0 {
			r.ServiceStart += 500_000 // some waiting
		}
		r.Finish = r.ServiceStart + int64(r.Size)*300 // response grows with size
		tr.Reqs = append(tr.Reqs, r)
	}
	return tr
}

func TestSizeStatsOf(t *testing.T) {
	tr := &trace.Trace{Name: "S", Reqs: []trace.Request{
		{Size: 4096, Op: trace.Write},
		{Size: 8192, Op: trace.Read},
		{Size: 16384, Op: trace.Write},
	}}
	s := Of(tr).Size()
	if s.Requests != 3 || s.MaxKB != 16 {
		t.Fatalf("%+v", s)
	}
	if s.DataKB != 28 {
		t.Errorf("DataKB = %d, want 28", s.DataKB)
	}
	if math.Abs(s.AveKB-28.0/3) > 0.01 {
		t.Errorf("AveKB = %v", s.AveKB)
	}
	if s.AveReadKB != 8 || s.AveWriteKB != 10 {
		t.Errorf("AveReadKB %v AveWriteKB %v", s.AveReadKB, s.AveWriteKB)
	}
	if math.Abs(s.WriteReqPct-66.67) > 0.1 {
		t.Errorf("WriteReqPct %v", s.WriteReqPct)
	}
	if math.Abs(s.WriteSizePct-20.0/28*100) > 0.1 {
		t.Errorf("WriteSizePct %v", s.WriteSizePct)
	}
}

func TestSizeStatsEmpty(t *testing.T) {
	s := Of(&trace.Trace{Name: "E"}).Size()
	if s.Requests != 0 || s.DataKB != 0 {
		t.Fatal("empty trace should produce zero stats")
	}
}

func TestTimingStatsOf(t *testing.T) {
	tr := replayedTrace()
	ts := Of(tr).Timing()
	if ts.NoWaitPct != 90 {
		t.Errorf("NoWaitPct %v, want 90", ts.NoWaitPct)
	}
	if ts.MeanRespMs <= ts.MeanServMs {
		t.Error("response must include wait time")
	}
	if ts.ArrivalRate < 95 || ts.ArrivalRate > 105 {
		t.Errorf("ArrivalRate %v, want ~100/s", ts.ArrivalRate)
	}
	if ts.DurationSec <= 0 {
		t.Error("zero duration")
	}
}

func TestDistributionsOf(t *testing.T) {
	tr := replayedTrace()
	d := Of(tr).Dists()
	if d.Size.Total() != 100 {
		t.Errorf("size histogram holds %d", d.Size.Total())
	}
	if d.Response.Total() != 100 {
		t.Errorf("response histogram holds %d", d.Response.Total())
	}
	if d.Interarrival.Total() != 99 {
		t.Errorf("interarrival histogram holds %d", d.Interarrival.Total())
	}
	if f := d.Single4KFraction(); f != 0.25 {
		t.Errorf("Single4KFraction %v, want 0.25", f)
	}
}

func TestSizeResponseCorrelation(t *testing.T) {
	tr := replayedTrace()
	// Response time was constructed proportional to size.
	if c := Of(tr).SizeResponseCorrelation(); c < 0.95 {
		t.Errorf("correlation %v, want ~1 (response built from size)", c)
	}
	if c := Of(&trace.Trace{}).SizeResponseCorrelation(); c != 0 {
		t.Errorf("empty trace correlation %v", c)
	}
}

func TestEvaluateCharacteristicsOnSyntheticSet(t *testing.T) {
	// Build a set with the paper's qualitative properties and check all six
	// findings hold.
	var traces []*trace.Trace
	for k := 0; k < 6; k++ {
		tr := &trace.Trace{Name: "A"}
		at := int64(0)
		for i := 0; i < 400; i++ {
			at += 300_000_000 // 300 ms gaps: long inter-arrivals
			r := trace.Request{Arrival: at, LBA: uint64(i%50) * 1000 * 8, Size: 4096, Op: trace.Write}
			if i%5 == 0 {
				r.Size = 65536
				r.Op = trace.Read
			}
			r.ServiceStart = r.Arrival
			r.Finish = r.ServiceStart + 2_000_000
			tr.Reqs = append(tr.Reqs, r)
		}
		traces = append(traces, tr)
	}
	rows := make([]TraceSummary, len(traces))
	for i, tr := range traces {
		rows[i] = Of(tr).Summary()
	}
	findings := EvaluateCharacteristicsFrom(rows)
	if len(findings) != 6 {
		t.Fatalf("%d findings, want 6", len(findings))
	}
	for _, f := range findings {
		switch f.ID {
		case 1, 2, 3, 6:
			if !f.Holds {
				t.Errorf("characteristic %d should hold on this set: %s", f.ID, f.Evidence)
			}
		}
		if f.Claim == "" || f.Evidence == "" {
			t.Errorf("characteristic %d missing text", f.ID)
		}
	}
}

func TestResponseSummary(t *testing.T) {
	tr := replayedTrace()
	s := Of(tr).Response()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P99 < s.P50 || s.Max < s.P99 || s.Min > s.P50 {
		t.Fatalf("ordering violated: %+v", s)
	}
	if Of(&trace.Trace{}).Response().Count != 0 {
		t.Fatal("empty trace should yield empty summary")
	}
}

func TestInterarrivalSummary(t *testing.T) {
	tr := replayedTrace()
	s := Of(tr).Interarrival()
	if s.Count != 99 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Mean < 9_000_000 || s.Mean > 11_000_000 {
		t.Fatalf("mean gap %.0f, want ~10ms", s.Mean)
	}
}

func TestFullReport(t *testing.T) {
	tr := replayedTrace()
	r := Of(tr).Report()
	if r.Size.Requests != 100 || r.Timing.NoWaitPct != 90 {
		t.Fatalf("report core stats wrong: %+v %+v", r.Size, r.Timing)
	}
	if r.Response.Count != 100 || r.Interarrival.Count != 99 {
		t.Fatal("report summaries wrong")
	}
	if r.SizeRespCorr < 0.9 {
		t.Fatalf("correlation %v", r.SizeRespCorr)
	}
	if r.Dists.Size.Total() != 100 {
		t.Fatal("report distributions wrong")
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	acc := NewAccumulator("e")
	if acc.Size().Requests != 0 || acc.Timing().DurationSec != 0 {
		t.Fatal("empty accumulator produced stats")
	}
}

// Timing averages Request.ServiceTime and ResponseTime over every request,
// replayed or not, counts NoWait as ServiceStart == Arrival, and takes the
// duration from the latest arrival or finish (Trace.Duration).
func TestTimingDefinitions(t *testing.T) {
	tr := &trace.Trace{Reqs: []trace.Request{
		{Arrival: 1_000_000, Size: 4096, ServiceStart: 1_000_000, Finish: 3_000_000},
		{Arrival: 7_000_000, Size: 4096, ServiceStart: 7_000_000, Finish: 7_000_000}, // zero-length
		{Arrival: 4_000_000, Size: 4096, ServiceStart: 4_500_000},                    // issued, unfinished
		{Arrival: 6_000_000, Size: 4096},                                             // never issued
	}}
	// Only the first request has finished with a nonzero duration (2 ms);
	// the unfinished ones count zero, never a negative time.
	for i, r := range tr.Reqs {
		if r.ServiceTime() < 0 || r.ResponseTime() < 0 {
			t.Errorf("request %d: service %d ns, response %d ns, want >= 0", i, r.ServiceTime(), r.ResponseTime())
		}
	}
	ts := Of(tr).Timing()
	if ts.MeanServMs != 0.5 {
		t.Errorf("MeanServMs %v, want 0.5 (2 ms over 4 requests)", ts.MeanServMs)
	}
	if ts.MeanRespMs != 0.5 {
		t.Errorf("MeanRespMs %v, want 0.5 (2 ms over 4 requests)", ts.MeanRespMs)
	}
	if ts.NoWaitPct != 50 {
		t.Errorf("NoWaitPct %v, want 50 (the first two requests)", ts.NoWaitPct)
	}
	if want := float64(tr.Duration()) / 1e9; ts.DurationSec != want || want != 0.007 {
		t.Errorf("DurationSec %v, want %v = 7 ms", ts.DurationSec, want)
	}
}
