// Streaming forms of the §III characterization: every batch function that
// walks a *trace.Trace has a counterpart here that drains a trace.Stream
// through an Accumulator instead, so multi-hour traces are characterized in
// memory bounded by the unique page footprint (or a caller-set cap), never
// the request count.

package analysis

import (
	"fmt"

	"emmcio/internal/trace"
)

// AccumulateStream resets the stream and drains it into a fresh unbounded
// Accumulator.
func AccumulateStream(st trace.Stream) (*Accumulator, error) {
	return accumulate(st, 0)
}

// AccumulateStreamBounded is AccumulateStream with a temporal page-set cap
// (see NewAccumulatorBounded).
func AccumulateStreamBounded(st trace.Stream, maxPages int) (*Accumulator, error) {
	return accumulate(st, maxPages)
}

func accumulate(st trace.Stream, maxPages int) (*Accumulator, error) {
	if err := st.Reset(); err != nil {
		return nil, fmt.Errorf("analysis: resetting %s: %w", st.Name(), err)
	}
	acc := NewAccumulatorBounded(st.Name(), maxPages)
	for i := 0; ; i++ {
		req, ok, err := st.Next()
		if err != nil {
			return nil, fmt.Errorf("analysis: reading %s request %d: %w", st.Name(), i, err)
		}
		if !ok {
			return acc, nil
		}
		acc.Add(req)
	}
}

// SizeStatsOfStream measures the Table III columns of a stream in one pass.
func SizeStatsOfStream(st trace.Stream) (SizeStats, error) {
	acc, err := AccumulateStream(st)
	if err != nil {
		return SizeStats{}, err
	}
	return acc.Size(), nil
}

// TimingStatsOfStream measures the Table IV columns of a (replayed) stream
// in one pass.
func TimingStatsOfStream(st trace.Stream) (TimingStats, error) {
	acc, err := AccumulateStream(st)
	if err != nil {
		return TimingStats{}, err
	}
	return acc.Timing(), nil
}

// DistributionsOfStream builds the Figs. 4–7 histograms of a stream in one
// pass.
func DistributionsOfStream(st trace.Stream) (Distributions, error) {
	acc, err := AccumulateStream(st)
	if err != nil {
		return Distributions{}, err
	}
	return acc.Dists(), nil
}
