package telemetry

import (
	"math"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []int64{0, 5, 10} {
		h.Observe(v)
	}
	for _, v := range []int64{11, 100} {
		h.Observe(v)
	}
	h.Observe(500)
	h.Observe(1001) // overflow
	counts := h.BucketCounts()
	want := []int64{3, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 7 || h.Max() != 1001 || h.Min() != 0 {
		t.Fatalf("count=%d max=%d min=%d", h.Count(), h.Max(), h.Min())
	}
	if h.Sum() != 0+5+10+11+100+500+1001 {
		t.Fatalf("sum=%d", h.Sum())
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]int64{100, 200, 300, 400})
	// 100 observations spread uniformly: 25 per bucket over [0,400].
	for b := 0; b < 4; b++ {
		for i := 0; i < 25; i++ {
			h.Observe(int64(b*100 + 50))
		}
	}
	// Rank of p50 is 50 = exactly the end of bucket 2 (le=200), so linear
	// interpolation lands on the bucket's upper edge.
	if got := h.Quantile(0.50); got != 200 {
		t.Fatalf("p50 = %d, want 200", got)
	}
	// p95 rank 95 sits 20/25 of the way through the last bucket (300, 400],
	// but the bucket's upper edge clamps to the observed max (350).
	if got := h.Quantile(0.95); got < 300 || got > 350 {
		t.Fatalf("p95 = %d, want within (300, 350]", got)
	}
	if got := h.Quantile(1); got != 350 {
		t.Fatalf("p100 = %d, want max 350", got)
	}
	if got := h.Quantile(0); got != 50 {
		t.Fatalf("p0 = %d, want min 50", got)
	}
}

func TestHistogramQuantileMidBucket(t *testing.T) {
	h := NewHistogram([]int64{100})
	// 4 values in [0,100]: ranks interpolate linearly inside the bucket,
	// clamped to the observed [min, max] = [60, 90].
	for _, v := range []int64{60, 70, 80, 90} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 60 {
		// rank 2 of 4 -> 50% across [0,100] = 50, clamped up to min 60.
		t.Fatalf("p50 = %d, want clamp to 60", got)
	}
	if got := h.Quantile(0.99); got < 85 || got > 90 {
		t.Fatalf("p99 = %d, want near max 90", got)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	h := NewHistogram([]int64{10})
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	var nilH *Histogram
	nilH.Observe(5) // must not panic
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 || nilH.Bounds() != nil {
		t.Fatal("nil histogram should be a no-op")
	}
}

func TestDefaultLatencyBucketsCoverFlashOps(t *testing.T) {
	b := DefaultLatencyBuckets()
	if b[0] != 1_000 {
		t.Fatalf("first bound %d, want 1µs", b[0])
	}
	last := b[len(b)-1]
	if last < 4_000_000_000 {
		t.Fatalf("last bound %d too small to cover GC stalls", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bounds not doubling at %d", i)
		}
	}
}

// TestHistogramRepeatedEqualValues holds min, max and merge exact when the
// same value is observed over and over (the case where an observation
// equal to the current minimum must leave the stored minimum alone).
func TestHistogramRepeatedEqualValues(t *testing.T) {
	for _, v := range []int64{0, 1, 7, 4_000} {
		a := NewHistogram([]int64{10, 100})
		b := NewHistogram([]int64{10, 100})
		for i := 0; i < 50; i++ {
			a.Observe(v)
			b.Observe(v)
		}
		if a.Min() != v || a.Max() != v || a.Count() != 50 || a.Sum() != 50*v {
			t.Fatalf("v=%d: min=%d max=%d count=%d sum=%d", v, a.Min(), a.Max(), a.Count(), a.Sum())
		}
		a.merge(b)
		a.merge(b)
		if a.Min() != v || a.Max() != v || a.Count() != 150 {
			t.Fatalf("v=%d after merge: min=%d max=%d count=%d", v, a.Min(), a.Max(), a.Count())
		}
		empty := NewHistogram([]int64{10, 100})
		empty.merge(a)
		if empty.Min() != v || empty.Max() != v {
			t.Fatalf("v=%d merged into empty: min=%d max=%d", v, empty.Min(), empty.Max())
		}
		a.Observe(v + 1)
		if a.Min() != v || a.Max() != v+1 {
			t.Fatalf("v=%d then v+1: min=%d max=%d", v, a.Min(), a.Max())
		}
	}
}

// TestDefaultGridBucketOfMatchesSearch holds the default grid's computed
// bucket index to the binary search every other grid uses: zero,
// negatives, one below, at and above every bound, and MaxInt64.
func TestDefaultGridBucketOfMatchesSearch(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	if !h.pow2 {
		t.Fatal("DefaultLatencyBuckets not detected as the default grid")
	}
	vals := []int64{0, -1, -1_000, math.MinInt64, 1, 999, math.MaxInt64, math.MaxInt64 - 1}
	for _, b := range h.bounds {
		vals = append(vals, b-1, b, b+1)
	}
	for _, v := range vals {
		if got, want := h.bucketOf(v), h.searchBucket(v); got != want {
			t.Errorf("bucketOf(%d) = %d, binary search says %d", v, got, want)
		}
	}
	for _, bounds := range [][]int64{
		DefaultLatencyBuckets()[:22], // a prefix of the grid
		{1_000, 2_000, 4_000},
		{10, 100, 1_000},
	} {
		if NewHistogram(bounds).pow2 {
			t.Errorf("grid %v taken for the default", bounds)
		}
	}
}
