package telemetry

import (
	"io"
	"strconv"
	"sync"
)

// exposition is one WritePrometheus call's scratch: the rendered bytes and
// the sorted keys of the section being rendered. It is pooled, so a scrape
// of a warm server allocates per response, not per series.
type exposition struct {
	b    []byte
	keys []metricKey
}

var expositions = sync.Pool{New: func() any { return new(exposition) }}

// WritePrometheus writes the registry's current state in the Prometheus
// text exposition format (version 0.0.4): one `# TYPE` header per metric
// family, histograms expanded into cumulative `_bucket{le=...}` series plus
// `_sum` and `_count`. Output order is deterministic (family, then label
// set), so the format is golden-file testable. The exposition is rendered
// under the registry's lock into one buffer and written with one Write
// after the lock is released.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r = r.published()
	e := expositions.Get().(*exposition)
	defer expositions.Put(e)
	r.mu.Lock()
	e.render(r)
	r.mu.Unlock()
	_, err := w.Write(e.b)
	return err
}

// render replaces e.b with r's exposition; r.mu is held.
func (e *exposition) render(r *Registry) {
	b := e.b[:0]
	keys := appendSortedKeys(e.keys[:0], r.counters)
	for i, k := range keys {
		b = appendType(b, keys, i, "counter")
		b = appendSample(b, k.family, "", k.labels, r.counters[k].Value())
	}
	keys = appendSortedKeys(keys[:0], r.gauges)
	for i, k := range keys {
		b = appendType(b, keys, i, "gauge")
		b = appendSample(b, k.family, "", k.labels, r.gauges[k].Value())
	}
	keys = appendSortedKeys(keys[:0], r.hists)
	for i, k := range keys {
		b = appendType(b, keys, i, "histogram")
		h := r.hists[k]
		// The counts are read in place; the +Inf bucket's cumulative count
		// is also _count, so the two agree while a live job observes.
		var cum int64
		for j := range h.counts {
			cum += h.counts[j].Load()
			b = append(b, k.family...)
			b = append(b, "_bucket{"...)
			if k.labels != "" {
				b = append(b, k.labels...)
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			if j < len(h.bounds) {
				b = strconv.AppendInt(b, h.bounds[j], 10)
			} else {
				b = append(b, "+Inf"...)
			}
			b = append(b, `"} `...)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
		b = appendSample(b, k.family, "_sum", k.labels, h.Sum())
		b = appendSample(b, k.family, "_count", k.labels, cum)
	}
	e.b, e.keys = b, keys
}

// appendType appends the `# TYPE` header when keys[i] starts a family.
func appendType(b []byte, keys []metricKey, i int, typ string) []byte {
	if i > 0 && keys[i-1].family == keys[i].family {
		return b
	}
	b = append(b, "# TYPE "...)
	b = append(b, keys[i].family...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// appendSample appends one `family+suffix{labels} v` line; an empty label
// set renders without braces.
func appendSample(b []byte, family, suffix, labels string, v int64) []byte {
	b = append(b, family...)
	b = append(b, suffix...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}
