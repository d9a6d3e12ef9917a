package telemetry

// Scoped registries attribute metrics to the workload that produced them,
// the way the paper attributes device-level I/O back to individual
// applications. A job observes into its own child registry — same handle
// types, same lock-free hot path, zero extra cost per increment — and when
// it completes the child is merged into the parent, so a server-wide
// registry still reports fleet totals while each job's registry remains
// queryable as that job's own record.
//
// Merge semantics, chosen so that "parent totals equal the merge of every
// child snapshot" holds exactly:
//
//   - counters add;
//   - histograms add bucket-by-bucket (sum, count, max, and min fold in);
//   - gauges add — a child's final gauge value is treated as its
//     contribution to the parent (a completed job's queue depths and
//     virtual-time gauges are deltas from zero, so addition is the only
//     associative choice).
//
// Snapshot produces an immutable deep copy: taking one never touches the
// source's hot-path atomics beyond loads, so live jobs keep observing
// lock-free while a snapshot is cut.

// Child returns a fresh registry scoped under r. The child is an ordinary
// registry — handles resolved from it are plain counters/gauges/histograms
// with no extra indirection — plus a parent link that MergeIntoParent
// folds it through. A nil registry returns a nil child, preserving the
// "telemetry off" fast path end to end.
func (r *Registry) Child() *Registry {
	if r == nil {
		return nil
	}
	c := NewRegistry()
	c.parent = r
	return c
}

// Parent returns the registry this one was scoped under (nil at the root).
func (r *Registry) Parent() *Registry {
	if r == nil {
		return nil
	}
	return r.parent
}

// MergeIntoParent folds the registry's current state into its parent, as a
// completed job publishes its metrics to the server-wide registry. It is a
// no-op on a nil or root registry. Calling it twice double-counts; the
// owner of the job lifecycle calls it exactly once, at completion.
func (r *Registry) MergeIntoParent() {
	if r == nil || r.parent == nil {
		return
	}
	r.parent.Merge(r)
}

// Snapshot returns an immutable deep copy of the registry: fresh handles
// holding the source's current values. The copy has no parent. Snapshots
// are what the result store keeps for finished jobs — the source registry
// can keep moving (or be dropped) without disturbing the record.
func (r *Registry) Snapshot() *Registry {
	if r == nil {
		return nil
	}
	r = r.published()
	snap := NewRegistry()
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		nc := &Counter{}
		nc.v.Store(c.Value())
		snap.counters[k] = nc
	}
	for k, g := range r.gauges {
		ng := &Gauge{}
		ng.v.Store(g.Value())
		snap.gauges[k] = ng
	}
	for k, h := range r.hists {
		nh := NewHistogram(h.bounds)
		nh.merge(h)
		snap.hists[k] = nh
	}
	return snap
}

// Merge folds src's current state into r: counters and histograms add,
// gauges add (see the package comment on scoped registries for why).
// Metrics missing from r are created with src's shape. Merging a registry
// into itself is a bug (it would double every series) and is ignored.
// Both registries remain usable afterwards; src is not reset. A shard on
// either side stands for the registry it publishes into.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	r, src = r.published(), src.published()
	if r == src {
		return
	}
	// Snapshot src's maps under its lock, then fold into r under r's lock.
	// Taking both locks at once would invite lock-order inversion if two
	// registries ever merged into each other from different goroutines.
	src.mu.Lock()
	counters := make(map[metricKey]int64, len(src.counters))
	for k, c := range src.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[metricKey]int64, len(src.gauges))
	for k, g := range src.gauges {
		gauges[k] = g.Value()
	}
	hists := make(map[metricKey]*Histogram, len(src.hists))
	for k, h := range src.hists {
		frozen := NewHistogram(h.bounds)
		frozen.merge(h)
		hists[k] = frozen
	}
	src.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range counters {
		c, ok := r.counters[k]
		if !ok {
			c = &Counter{}
			r.counters[k] = c
		}
		c.Add(v)
	}
	for k, v := range gauges {
		g, ok := r.gauges[k]
		if !ok {
			g = &Gauge{}
			r.gauges[k] = g
		}
		g.Add(v)
	}
	for k, sh := range hists {
		h, ok := r.hists[k]
		if !ok {
			h = NewHistogram(sh.bounds)
			r.hists[k] = h
		}
		h.merge(sh)
	}
}
