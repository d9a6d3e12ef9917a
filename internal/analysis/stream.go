package analysis

import (
	"fmt"

	"emmcio/internal/trace"
)

// AccumulateStream resets the stream and drains it into a fresh
// Accumulator.
func AccumulateStream(st trace.Stream) (*Accumulator, error) {
	return accumulate(st, 0)
}

// Of characterizes a materialized trace: it drains trace.FromSlice(tr)
// into an Accumulator that retains every sample, so its Response and
// Interarrival summaries are exact at any trace length.
func Of(tr *trace.Trace) *Accumulator {
	acc, _ := accumulate(trace.FromSlice(tr), len(tr.Reqs)) // a slice stream never fails
	return acc
}

func accumulate(st trace.Stream, capSamples int) (*Accumulator, error) {
	if err := st.Reset(); err != nil {
		return nil, fmt.Errorf("analysis: resetting %s: %w", st.Name(), err)
	}
	acc := newAccumulator(st.Name(), capSamples)
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
