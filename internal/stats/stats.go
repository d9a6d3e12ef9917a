// Package stats provides the statistics toolkit used to analyze traces the
// way §III of the paper does: bucketed histograms with the paper's size,
// response-time and inter-arrival bucket schemes, summary statistics, and the
// paper's spatial/temporal locality definitions.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts samples into half-open buckets defined by upper bounds:
// bucket i holds values v with bounds[i-1] < v <= bounds[i]; the final
// implicit bucket holds v > bounds[len-1].
type Histogram struct {
	bounds []int64 // strictly increasing upper bounds
	counts []int64 // len(bounds)+1 entries
	total  int64
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. It panics on unordered bounds, which would silently misclassify.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds not strictly increasing")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(bounds)+1)}
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.total++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int64 { return h.total }

// Counts returns a copy of the per-bucket counts (last bucket is overflow).
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Fractions returns per-bucket fractions of the total; all zeros when empty.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Bound returns the upper bound of bucket i; the overflow bucket returns
// math.MaxInt64.
func (h *Histogram) Bound(i int) int64 {
	if i >= len(h.bounds) {
		return math.MaxInt64
	}
	return h.bounds[i]
}

// FractionAtOrBelow returns the fraction of samples <= bound. The bound must
// be one of the histogram's bucket bounds.
func (h *Histogram) FractionAtOrBelow(bound int64) float64 {
	if h.total == 0 {
		return 0
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		if b == bound {
			return float64(cum) / float64(h.total)
		}
		if b > bound {
			break
		}
	}
	panic(fmt.Sprintf("stats: %d is not a bucket bound", bound))
}

// Labels renders bucket labels using the given unit divisor and suffix,
// e.g. (1024, "KB") prints "<=4KB", "<=16KB", ..., ">256KB".
func (h *Histogram) Labels(div int64, unit string) []string {
	out := make([]string, len(h.counts))
	for i := range h.bounds {
		out[i] = fmt.Sprintf("<=%d%s", h.bounds[i]/div, unit)
	}
	out[len(h.bounds)] = fmt.Sprintf(">%d%s", h.bounds[len(h.bounds)-1]/div, unit)
	return out
}

// String renders "label:frac" pairs, handy in logs and golden tests.
func (h *Histogram) String() string {
	labels := make([]string, len(h.counts))
	for i := range h.bounds {
		labels[i] = fmt.Sprintf("<=%d", h.bounds[i])
	}
	labels[len(h.bounds)] = fmt.Sprintf(">%d", h.bounds[len(h.bounds)-1])
	fr := h.Fractions()
	parts := make([]string, len(labels))
	for i := range labels {
		parts[i] = fmt.Sprintf("%s:%.3f", labels[i], fr[i])
	}
	return strings.Join(parts, " ")
}

// The paper's bucket schemes.

const (
	kb = 1024
	ms = int64(1_000_000) // nanoseconds per millisecond
)

// SizeBounds are the request-size buckets of Fig. 4 (bytes):
// <=4KB, <=16KB, <=64KB, <=256KB, >256KB.
func SizeBounds() []int64 { return []int64{4 * kb, 16 * kb, 64 * kb, 256 * kb} }

// ResponseBounds are the response-time buckets of Fig. 5 (ns):
// <=2ms, <=4ms, <=8ms, <=16ms, <=32ms, <=64ms, <=128ms, >128ms.
func ResponseBounds() []int64 {
	return []int64{2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 128 * ms}
}

// InterarrivalBounds are the inter-arrival buckets of Fig. 6 (ns):
// <=1ms, <=2ms, <=4ms, <=8ms, <=16ms, >16ms.
func InterarrivalBounds() []int64 {
	return []int64{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms}
}

// Summary holds order statistics of a sample set.
type Summary struct {
	Count  int
	Mean   float64
	Min    int64
	Max    int64
	P50    int64
	P95    int64
	P99    int64
	StdDev float64
}

// Summarize computes a Summary. It copies and sorts the input.
func Summarize(samples []int64) Summary {
	var s Summary
	s.Count = len(samples)
	if s.Count == 0 {
		return s
	}
	sorted := make([]int64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum, sq float64
	for _, v := range sorted {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	s.Mean = sum / float64(s.Count)
	variance := sq/float64(s.Count) - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P50 = percentileSorted(sorted, 0.50)
	s.P95 = percentileSorted(sorted, 0.95)
	s.P99 = percentileSorted(sorted, 0.99)
	return s
}

func percentileSorted(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Correlation returns the Pearson correlation coefficient of two equal-length
// series, or 0 when undefined. §III-C observes a strong correlation between
// request size and response time.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// IndexOfDispersion returns the variance-to-mean ratio of the samples —
// 1 for Poisson-like arrivals, larger for the bursty inter-arrival
// processes the smartphone traces exhibit (Fig. 6's heavy mixtures).
func IndexOfDispersion(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum, sq float64
	for _, v := range samples {
		f := float64(v)
		sum += f
		sq += f * f
	}
	n := float64(len(samples))
	mean := sum / n
	if mean == 0 {
		return 0
	}
	variance := sq/n - mean*mean
	return variance / mean
}

// histogramJSON is the wire form of a Histogram.
type histogramJSON struct {
	Bounds    []int64   `json:"bounds"`
	Counts    []int64   `json:"counts"`
	Fractions []float64 `json:"fractions"`
}

// MarshalJSON emits bounds, counts and fractions so reports serialize
// usefully (the zero Histogram emits empty arrays).
func (h *Histogram) MarshalJSON() ([]byte, error) {
	hj := histogramJSON{Bounds: h.bounds, Counts: h.counts, Fractions: h.Fractions()}
	return json.Marshal(hj)
}

// UnmarshalJSON restores a histogram written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var hj histogramJSON
	if err := json.Unmarshal(b, &hj); err != nil {
		return err
	}
	if len(hj.Counts) != len(hj.Bounds)+1 {
		return fmt.Errorf("stats: histogram JSON has %d counts for %d bounds", len(hj.Counts), len(hj.Bounds))
	}
	for i := 1; i < len(hj.Bounds); i++ {
		if hj.Bounds[i] <= hj.Bounds[i-1] {
			return fmt.Errorf("stats: histogram JSON bounds not increasing")
		}
	}
	h.bounds = hj.Bounds
	h.counts = hj.Counts
	h.total = 0
	for _, c := range hj.Counts {
		h.total += c
	}
	return nil
}
