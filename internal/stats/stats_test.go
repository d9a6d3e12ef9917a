package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 30})
	for _, v := range []int64{5, 10, 11, 20, 21, 30, 31, 1000} {
		h.Add(v)
	}
	want := []int64{2, 2, 2, 2} // (<=10, <=20, <=30, >30)
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Total() != 8 {
		t.Fatalf("total %d, want 8", h.Total())
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	h := NewHistogram([]int64{4096})
	h.Add(4096)
	if h.Counts()[0] != 1 {
		t.Fatal("value equal to bound must land in that bucket (half-open upper)")
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram([]int64{10})
	h.Add(5)
	h.Add(5)
	h.Add(15)
	h.Add(25)
	fr := h.Fractions()
	if math.Abs(fr[0]-0.5) > 1e-12 || math.Abs(fr[1]-0.5) > 1e-12 {
		t.Fatalf("fractions %v, want [0.5 0.5]", fr)
	}
}

func TestHistogramEmptyFractions(t *testing.T) {
	h := NewHistogram([]int64{10})
	fr := h.Fractions()
	for _, f := range fr {
		if f != 0 {
			t.Fatal("empty histogram should report zero fractions")
		}
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	h := NewHistogram(SizeBounds())
	h.Add(4096)
	h.Add(4096)
	h.Add(8192)
	h.Add(300 * 1024)
	if got := h.FractionAtOrBelow(4 * 1024); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FractionAtOrBelow(4KB) = %v, want 0.5", got)
	}
	if got := h.FractionAtOrBelow(16 * 1024); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("FractionAtOrBelow(16KB) = %v, want 0.75", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unordered bounds did not panic")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestHistogramCountsPreservedUnderAnyInput(t *testing.T) {
	f := func(values []int64) bool {
		h := NewHistogram([]int64{0, 100, 10000})
		for _, v := range values {
			h.Add(v)
		}
		var sum int64
		for _, c := range h.Counts() {
			sum += c
		}
		return sum == int64(len(values)) && h.Total() == int64(len(values))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperBucketSchemes(t *testing.T) {
	if got := len(SizeBounds()); got != 4 {
		t.Errorf("SizeBounds len %d, want 4", got)
	}
	if got := len(ResponseBounds()); got != 7 {
		t.Errorf("ResponseBounds len %d, want 7", got)
	}
	if got := len(InterarrivalBounds()); got != 5 {
		t.Errorf("InterarrivalBounds len %d, want 5", got)
	}
	if SizeBounds()[0] != 4096 {
		t.Error("first size bound must be 4KB (single page, Characteristic 2)")
	}
	if ResponseBounds()[0] != 2_000_000 {
		t.Error("first response bound must be 2ms (Fig. 5 observation)")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int64{5, 1, 3, 2, 4})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestPercentiles(t *testing.T) {
	samples := make([]int64, 100)
	for i := range samples {
		samples[i] = int64(i + 1) // 1..100
	}
	s := Summarize(samples)
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("percentiles P50=%d P95=%d P99=%d", s.P50, s.P95, s.P99)
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yUp := []float64{2, 4, 6, 8, 10}
	yDown := []float64{10, 8, 6, 4, 2}
	if c := Correlation(x, yUp); math.Abs(c-1) > 1e-9 {
		t.Errorf("perfect positive correlation = %v", c)
	}
	if c := Correlation(x, yDown); math.Abs(c+1) > 1e-9 {
		t.Errorf("perfect negative correlation = %v", c)
	}
	if c := Correlation(x, []float64{7, 7, 7, 7, 7}); c != 0 {
		t.Errorf("constant series correlation = %v, want 0", c)
	}
	if c := Correlation(x, []float64{1, 2}); c != 0 {
		t.Errorf("mismatched lengths correlation = %v, want 0", c)
	}
}

func TestHistogramLabels(t *testing.T) {
	h := NewHistogram(SizeBounds())
	labels := h.Labels(1024, "KB")
	want := []string{"<=4KB", "<=16KB", "<=64KB", "<=256KB", ">256KB"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels %v, want %v", labels, want)
		}
	}
}

func TestIndexOfDispersion(t *testing.T) {
	if IndexOfDispersion(nil) != 0 {
		t.Error("empty samples")
	}
	// Constant gaps: zero variance.
	if got := IndexOfDispersion([]int64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant dispersion %v", got)
	}
	// A bursty mixture disperses far beyond its mean.
	bursty := []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1000}
	if got := IndexOfDispersion(bursty); got < 50 {
		t.Errorf("bursty dispersion %v, want large", got)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(SizeBounds())
	h.Add(4096)
	h.Add(8192)
	h.Add(999999)
	b, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back.Total() != 3 {
		t.Fatalf("total %d after round trip", back.Total())
	}
	got := back.Counts()
	want := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts differ: %v vs %v", got, want)
		}
	}
	if err := back.UnmarshalJSON([]byte(`{"bounds":[2,1],"counts":[0,0,0]}`)); err == nil {
		t.Fatal("unordered bounds accepted")
	}
	if err := back.UnmarshalJSON([]byte(`{"bounds":[1],"counts":[0]}`)); err == nil {
		t.Fatal("count/bound mismatch accepted")
	}
}
