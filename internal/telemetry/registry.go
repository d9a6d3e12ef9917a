package telemetry

import (
	"sort"
	"strings"
	"sync"
)

// metricKey identifies one metric instance: a family name plus its rendered
// label set (`op="read"`, possibly empty). Keeping the two separate lets the
// Prometheus exporter splice the histogram `le` label in cleanly.
type metricKey struct {
	family string
	labels string
}

func (k metricKey) String() string {
	if k.labels == "" {
		return k.family
	}
	return k.family + "{" + k.labels + "}"
}

// renderLabels joins labels in key-sorted order so the same set always maps
// to the same metric regardless of call-site ordering.
func renderLabels(labels []Label) string {
	switch len(labels) {
	case 0:
		return ""
	case 1:
		return labels[0].Key + `="` + escapeLabelValue(labels[0].Value) + `"`
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry hands out named metric handles and snapshots them for export.
// It is safe for concurrent use; handle lookups take a mutex, so hot paths
// should resolve their handles once up front and increment lock-free.
// A nil *Registry returns nil handles everywhere, which are themselves
// no-ops — instrumentation is off by default and needs no guards.
type Registry struct {
	mu       sync.Mutex
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
	// parent, when non-nil, is the registry this one was scoped under via
	// Child; MergeIntoParent folds through it. See scope.go.
	parent *Registry
	// shardOf, when non-nil, is the registry this shard's Flush publishes
	// into. See Shard.
	shardOf *Registry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[metricKey]*Counter{},
		gauges:   map[metricKey]*Gauge{},
		hists:    map[metricKey]*Histogram{},
	}
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.counterAt(metricKey{name, renderLabels(labels)})
}

// counterAt returns the counter for k, creating it (in a shard, with its
// parent) on first use.
func (r *Registry) counterAt(k metricKey) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		if r.shardOf != nil {
			c.parent = r.shardOf.counterAt(k)
		}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.gaugeAt(metricKey{name, renderLabels(labels)})
}

// gaugeAt is counterAt for gauges.
func (r *Registry) gaugeAt(k metricKey) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		if r.shardOf != nil {
			g.parent = r.shardOf.gaugeAt(k)
		}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket bounds on first use (later calls reuse the existing buckets;
// nil bounds select DefaultLatencyBuckets).
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.histogramAt(metricKey{name, renderLabels(labels)}, bounds)
}

// histogramAt is counterAt for histograms. A shard's histogram takes its
// parent's grid.
func (r *Registry) histogramAt(k metricKey, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		switch {
		case r.shardOf != nil:
			h = newShardHistogram(r.shardOf.histogramAt(k, bounds))
		case bounds == nil:
			h = NewHistogram(DefaultLatencyBuckets())
		default:
			h = NewHistogram(bounds)
		}
		r.hists[k] = h
	}
	return h
}

// Shard returns a single-writer view of r for one goroutine, such as one
// replay: its handles are r's series, but they accumulate in plain fields,
// with no atomic operation, until Flush publishes them into r's handles
// with the merge semantics of Merge (gauges publish their last Set, or the
// sum of their Adds). Creating a shard's handle creates r's, so r lists
// every series the shard observes from the start. Reads of a shard report
// r's published state. A shard of a shard is a new shard of the same
// registry; a nil registry's shard is nil.
func (r *Registry) Shard() *Registry {
	if r == nil {
		return nil
	}
	if r.shardOf != nil {
		r = r.shardOf
	}
	s := NewRegistry()
	s.shardOf = r
	return s
}

// Flush publishes what the shard observed since its last Flush into the
// registry it was cut from. It is a no-op on a nil registry or one that is
// not a shard. Only the shard's writer may call it.
func (r *Registry) Flush() {
	if r == nil || r.shardOf == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.flush()
	}
	for _, g := range r.gauges {
		g.flush()
	}
	for _, h := range r.hists {
		h.flush()
	}
}

// published is the registry that holds r's values: r itself, or the
// registry r is a shard of.
func (r *Registry) published() *Registry {
	if r.shardOf != nil {
		return r.shardOf
	}
	return r
}

func sortedKeys[M ~map[metricKey]V, V any](m M) []metricKey {
	keys := make([]metricKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].family != keys[j].family {
			return keys[i].family < keys[j].family
		}
		return keys[i].labels < keys[j].labels
	})
	return keys
}

// EachCounter visits every counter in deterministic (name, labels) order.
// The name includes the rendered label set.
func (r *Registry) EachCounter(fn func(name string, value int64)) {
	if r == nil {
		return
	}
	r = r.published()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(r.counters) {
		fn(k.String(), r.counters[k].Value())
	}
}

// EachGauge visits every gauge in deterministic order.
func (r *Registry) EachGauge(fn func(name string, value int64)) {
	if r == nil {
		return
	}
	r = r.published()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(r.gauges) {
		fn(k.String(), r.gauges[k].Value())
	}
}

// EachHistogram visits every histogram in deterministic order.
func (r *Registry) EachHistogram(fn func(name string, h *Histogram)) {
	if r == nil {
		return
	}
	r = r.published()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(r.hists) {
		fn(k.String(), r.hists[k])
	}
}
