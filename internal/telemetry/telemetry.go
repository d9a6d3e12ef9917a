// Package telemetry is the reproduction's observability subsystem: a
// zero-dependency metrics registry (counters, gauges, fixed-bucket latency
// histograms) and a span tracer, both keyed to **simulation time** —
// int64 nanoseconds since simulation start, the same clock internal/sim
// advances — never wall-clock.
//
// The design follows the paper's own measurement discipline. BIOtracer
// (§II) records three timestamps per request into a bounded 32 KB in-RAM
// log so the instrument's overhead stays small and measurable; Tracer
// mirrors that with a bounded ring buffer of spans that drops the oldest
// records first. All handles are nil-safe: a nil *Registry hands out nil
// *Counter/*Gauge/*Histogram values whose methods are no-ops, so
// instrumented hot paths pay only a branch-predictable nil check when
// telemetry is off (the paper's ~2% tracing-overhead budget is the bar).
// Like BIOtracer's log, which is written out in bulk, a single-writer
// observer such as one replay records through Registry.Shard and
// Tracer.Batch: plain fields and a local batch, published into the shared
// atomic handles and the ring by Flush, instead of one synchronized
// operation per observation.
//
// Snapshots export as Prometheus text (WritePrometheus) and as Chrome
// trace-event JSON (WriteChromeTrace) loadable in chrome://tracing or
// Perfetto.
package telemetry

import "sync/atomic"

// Label is one metric or span annotation, rendered as `key="value"` in the
// Prometheus exposition and as an args entry in Chrome traces.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter is a no-op, so callers can hold handles from a nil
// Registry without guarding every increment.
//
// A counter from a Registry.Shard buffers its increments in a plain field
// until the shard's Flush adds them to parent, the shared counter.
type Counter struct {
	v       atomic.Int64
	parent  *Counter
	pending int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	if c.parent != nil {
		c.pending += n
		return
	}
	c.v.Add(n)
}

// flush publishes a shard counter's pending increments.
func (c *Counter) flush() {
	if c.pending != 0 {
		c.parent.v.Add(c.pending)
		c.pending = 0
	}
}

// Value returns the current count (0 for a nil Counter, and for a shard's
// counter, whose count is its parent's).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value (queue depth, buffer occupancy, virtual
// time). A nil Gauge is a no-op.
//
// A gauge from a Registry.Shard keeps its value in plain fields until the
// shard's Flush publishes it to parent: the last Set (plus any Adds since),
// or, when nothing was Set since the last flush, the sum of the Adds.
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
	local  int64 // the shard's view: last Set plus the Adds since
	delta  int64 // Adds since the last flush
	set    bool  // Set was called since the last flush
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	if g.parent != nil {
		g.local, g.set = v, true
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	if g.parent != nil {
		g.local += delta
		g.delta += delta
		return
	}
	g.v.Add(delta)
}

// flush publishes a shard gauge's Set or Adds since the last flush.
func (g *Gauge) flush() {
	switch {
	case g.set:
		g.parent.v.Store(g.local)
	case g.delta != 0:
		g.parent.v.Add(g.delta)
	}
	g.set, g.delta = false, 0
}

// Value returns the current value (0 for a nil Gauge, and for a shard's
// gauge, whose value is its parent's).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
