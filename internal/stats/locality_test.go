// The §III-C localities and arrival gaps are computed by
// analysis.Accumulator alone; these hand-computed cases hold its
// definitions. They live in an external test package because analysis
// imports stats.
package stats_test

import (
	"testing"

	"emmcio/internal/analysis"
	"emmcio/internal/trace"
)

func TestSpatialLocalityFullySequential(t *testing.T) {
	tr := &trace.Trace{}
	var lba uint64
	for i := 0; i < 10; i++ {
		tr.Reqs = append(tr.Reqs, trace.Request{Arrival: int64(i), LBA: lba, Size: 4096, Op: trace.Write})
		lba += trace.SectorsPerPage
	}
	// 9 of 10 requests follow their predecessor.
	if got := analysis.Of(tr).SpatialLocality(); got != 0.9 {
		t.Fatalf("SpatialLocality = %v, want 0.9", got)
	}
}

func TestSpatialLocalityRandom(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 10; i++ {
		tr.Reqs = append(tr.Reqs, trace.Request{Arrival: int64(i), LBA: uint64(i) * 1000 * trace.SectorsPerPage, Size: 4096})
	}
	if got := analysis.Of(tr).SpatialLocality(); got != 0 {
		t.Fatalf("SpatialLocality = %v, want 0", got)
	}
}

func TestSpatialLocalityTiny(t *testing.T) {
	if analysis.Of(&trace.Trace{}).SpatialLocality() != 0 {
		t.Fatal("empty trace should have zero spatial locality")
	}
	one := &trace.Trace{Reqs: []trace.Request{{LBA: 0, Size: 4096}}}
	if analysis.Of(one).SpatialLocality() != 0 {
		t.Fatal("one-request trace should have zero spatial locality")
	}
}

func TestTemporalLocalityRehits(t *testing.T) {
	tr := &trace.Trace{Reqs: []trace.Request{
		{Arrival: 0, LBA: 0, Size: 4096},
		{Arrival: 1, LBA: 0, Size: 4096},   // hit
		{Arrival: 2, LBA: 800, Size: 4096}, // miss
		{Arrival: 3, LBA: 0, Size: 4096},   // hit
	}}
	if got := analysis.Of(tr).TemporalLocality(); got != 0.5 {
		t.Fatalf("TemporalLocality = %v, want 0.5", got)
	}
}

func TestTemporalLocalityNoRepeats(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 5; i++ {
		tr.Reqs = append(tr.Reqs, trace.Request{LBA: uint64(i) * 8, Size: 4096})
	}
	if got := analysis.Of(tr).TemporalLocality(); got != 0 {
		t.Fatalf("TemporalLocality = %v, want 0", got)
	}
}

func TestInterarrivals(t *testing.T) {
	tr := &trace.Trace{Reqs: []trace.Request{
		{Arrival: 0}, {Arrival: 100}, {Arrival: 350},
	}}
	got := analysis.Of(tr).Interarrival()
	if got.Count != 2 || got.Min != 100 || got.Max != 250 || got.Mean != 175 {
		t.Fatalf("Interarrival = %+v, want gaps 100 and 250", got)
	}
	if analysis.Of(&trace.Trace{}).Interarrival().Count != 0 {
		t.Fatal("empty trace should yield no inter-arrival gaps")
	}
}
