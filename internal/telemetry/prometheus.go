package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// WritePrometheus writes the registry's current state in the Prometheus
// text exposition format (version 0.0.4): one `# TYPE` header per metric
// family, histograms expanded into cumulative `_bucket{le=...}` series plus
// `_sum` and `_count`. Output order is deterministic (family, then label
// set), so the format is golden-file testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r = r.published()
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	defer r.mu.Unlock()

	writeFamily := func(keys []metricKey, typ string, emit func(k metricKey) error) error {
		lastFamily := ""
		for _, k := range keys {
			if k.family != lastFamily {
				if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", k.family, typ); err != nil {
					return err
				}
				lastFamily = k.family
			}
			if err := emit(k); err != nil {
				return err
			}
		}
		return nil
	}

	if err := writeFamily(sortedKeys(r.counters), "counter", func(k metricKey) error {
		_, err := fmt.Fprintf(bw, "%s %d\n", k.String(), r.counters[k].Value())
		return err
	}); err != nil {
		return err
	}
	if err := writeFamily(sortedKeys(r.gauges), "gauge", func(k metricKey) error {
		_, err := fmt.Fprintf(bw, "%s %d\n", k.String(), r.gauges[k].Value())
		return err
	}); err != nil {
		return err
	}
	if err := writeFamily(sortedKeys(r.hists), "histogram", func(k metricKey) error {
		h := r.hists[k]
		counts := h.BucketCounts()
		var cum int64
		for i, bound := range h.Bounds() {
			cum += counts[i]
			if _, err := fmt.Fprintf(bw, "%s_bucket{%s} %d\n",
				k.family, spliceLE(k.labels, fmt.Sprintf("%d", bound)), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(bw, "%s_bucket{%s} %d\n",
			k.family, spliceLE(k.labels, "+Inf"), cum); err != nil {
			return err
		}
		sumKey := metricKey{k.family + "_sum", k.labels}
		countKey := metricKey{k.family + "_count", k.labels}
		if _, err := fmt.Fprintf(bw, "%s %d\n", sumKey.String(), h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(bw, "%s %d\n", countKey.String(), h.Count())
		return err
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// spliceLE appends the `le` label to an already-rendered label set.
func spliceLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}
