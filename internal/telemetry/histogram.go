package telemetry

import (
	"math"
	"math/bits"
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
// A histogram from a Registry.Shard observes into plain fields instead
// (local*, which only it allocates) until the shard's Flush folds them into
// parent, the shared histogram.
//
// A nil Histogram is a no-op, matching the rest of the package.
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds, in the observed unit (ns)
	// pow2 marks the DefaultLatencyBuckets grid, whose bucket bucketOf
	// computes instead of searching for.
	pow2   bool
	counts []atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // stored negated so the zero value means "unset"

	parent             *Histogram
	localCounts        []int64
	localSum, localMax int64
	localMin           int64 // negated, as min
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

// isDefaultGrid reports whether bounds are DefaultLatencyBuckets: 1 µs·2^k
// for k = 0..22.
func isDefaultGrid(bounds []int64) bool {
	if len(bounds) != 23 {
		return false
	}
	for k, b := range bounds {
		if b != 1_000<<k {
			return false
		}
	}
	return true
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
	h := &Histogram{bounds: append([]int64(nil), bounds...), pow2: isDefaultGrid(bounds)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// newShardHistogram builds a shard's histogram over parent's grid.
func newShardHistogram(parent *Histogram) *Histogram {
	return &Histogram{bounds: parent.bounds, pow2: parent.pow2, parent: parent,
		localCounts: make([]int64, len(parent.bounds)+1)}
}

// bucketOf returns the index of the first bound >= v, or len(bounds) for
// the overflow bucket. On the default grid, v in (1 µs·2^(k-1), 1 µs·2^k]
// is bucket k = bits.Len64((v-1)/1000); other grids binary-search.
func (h *Histogram) bucketOf(v int64) int {
	if h.pow2 {
		if v <= 1_000 {
			return 0
		}
		return min(bits.Len64(uint64((v-1)/1_000)), len(h.bounds))
	}
	return h.searchBucket(v)
}

// searchBucket is bucketOf by binary search over any grid.
func (h *Histogram) searchBucket(v int64) int {
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
	if h.parent != nil {
		h.localCounts[h.bucketOf(v)]++
		h.localSum += v
		h.localMax = max(h.localMax, v)
		if h.localMin == 0 || -v-1 > h.localMin {
			h.localMin = -v - 1
		}
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
	foldMax(&h.max, v)
	foldMin(&h.min, -v-1)
}

// foldMax raises a to v if v is larger.
func foldMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// foldMin lowers a negated minimum a to the negated value neg (0 = unset).
func foldMin(a *atomic.Int64, neg int64) {
	if neg == 0 {
		return
	}
	for {
		cur := a.Load()
		if cur != 0 && neg <= cur || a.CompareAndSwap(cur, neg) {
			return
		}
	}
}

// flush folds a shard histogram's observations since the last flush into
// its parent: the two share a grid, so buckets add one for one.
func (h *Histogram) flush() {
	observed := false
	for i, c := range h.localCounts {
		if c != 0 {
			h.parent.counts[i].Add(c)
			h.localCounts[i] = 0
			observed = true
		}
	}
	if !observed {
		return
	}
	h.parent.sum.Add(h.localSum)
	foldMax(&h.parent.max, h.localMax)
	foldMin(&h.parent.min, h.localMin)
	h.localSum, h.localMax, h.localMin = 0, 0, 0
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
	foldMax(&h.max, src.max.Load())
	foldMin(&h.min, src.min.Load())
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
	out := make([]int64, len(h.bounds)+1)
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
