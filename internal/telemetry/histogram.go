package telemetry

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram with lock-free observation.
// Bucket i counts observations v <= bounds[i] (Prometheus `le` semantics);
// one extra overflow bucket counts everything above the last bound. The
// exact maximum is tracked separately so tail percentiles interpolate
// against the real extreme rather than +Inf. The observation count is the
// sum of the buckets, not a separate atomic, which keeps Observe to two
// atomic adds.
//
// A nil Histogram is a no-op, matching the rest of the package.
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds, in the observed unit (ns)
	counts []atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // stored negated so the zero value means "unset"
}

// DefaultLatencyBuckets returns exponential nanosecond bounds from 1 µs to
// ~4.3 s (doubling), a range that covers both single flash-page operations
// (Table V: 160 µs reads) and multi-second GC-stalled requests.
func DefaultLatencyBuckets() []int64 {
	bounds := make([]int64, 0, 23)
	for b := int64(1_000); b <= 4_294_967_296; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. It panics on unordered bounds — a configuration bug, not a
// runtime condition.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// bucketOf returns the index of the first bound >= v (binary search), or
// len(bounds) for the overflow bucket.
func (h *Histogram) bucketOf(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if cur != 0 && -v-1 <= cur || h.min.CompareAndSwap(cur, -v-1) {
			break
		}
	}
}

// merge folds src's current state into h: bucket counts, sum, and count
// add; max and min fold. Identical bucket grids (the only case the
// registry produces, since families share bounds) merge bucket-for-bucket;
// a differing grid re-buckets each src bucket at its upper bound and the
// overflow at src's observed maximum, which keeps cumulative counts
// monotone at the cost of intra-bucket precision.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	sameBounds := len(h.bounds) == len(src.bounds)
	if sameBounds {
		for i := range h.bounds {
			if h.bounds[i] != src.bounds[i] {
				sameBounds = false
				break
			}
		}
	}
	for i := range src.counts {
		c := src.counts[i].Load()
		if c == 0 {
			continue
		}
		switch {
		case sameBounds:
			h.counts[i].Add(c)
		case i < len(src.bounds):
			h.counts[h.bucketOf(src.bounds[i])].Add(c)
		default:
			h.counts[h.bucketOf(src.max.Load())].Add(c)
		}
	}
	h.sum.Add(src.sum.Load())
	for {
		cur, v := h.max.Load(), src.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	if neg := src.min.Load(); neg != 0 {
		v := -neg - 1
		for {
			cur := h.min.Load()
			if cur != 0 && -v-1 <= cur || h.min.CompareAndSwap(cur, -v-1) {
				break
			}
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Max returns the largest observed value.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest observed value (0 before any observation).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	neg := h.min.Load()
	if neg == 0 {
		return 0
	}
	return -neg - 1
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// inside the covering bucket: the bucket's lower edge plus the rank's
// fractional position scaled across the bucket width. The overflow bucket
// interpolates between the last bound and the observed maximum, and every
// estimate is clamped to [Min, Max] so a coarse grid cannot report a value
// outside what was actually observed.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		var lo int64
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.Max()
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(cum)) / float64(c)
		v := int64(math.Round(float64(lo) + frac*float64(hi-lo)))
		if min := h.Min(); v < min {
			v = min
		}
		if max := h.Max(); v > max {
			v = max
		}
		return v
	}
	return h.Max()
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a snapshot of the per-bucket counts; the final entry
// is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
