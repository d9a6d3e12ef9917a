package telemetry

import "sync"

// EventKind distinguishes span records from instantaneous markers.
type EventKind uint8

const (
	// SpanEvent covers a [Begin, End] interval of simulation time.
	SpanEvent EventKind = iota
	// InstantEvent marks a single point in time (Begin == End).
	InstantEvent
)

// Event is one trace record as the read side sees it. Layer attributes the
// event to a subsystem (core, emmc, ftl, sim); Track is the timeline it
// renders on in Perfetto (one "thread" per track, e.g. "requests/read" or
// "channel/0"). Labels is shared by every event of the same SpanKey and
// must not be modified.
type Event struct {
	Kind   EventKind
	Layer  string
	Track  string
	Name   string
	Begin  int64 // simulation ns
	End    int64 // simulation ns (== Begin for instants)
	Labels []Label
}

// SpanKey names what a record is: a (layer, track, name, labels) tuple
// interned by Tracer.Key. Instrumented code resolves its keys once, when
// telemetry is attached, so recording a span copies two timestamps and a
// key and never formats or allocates. A key is only meaningful to the
// tracer that issued it.
type SpanKey uint32

// spanMeta is what a SpanKey stands for.
type spanMeta struct {
	layer, track, name string
	labels             []Label
}

// entry is one ring record: 24 bytes and no pointers, so a ring costs the
// garbage collector nothing to scan. The kind rides in the key's padding.
type entry struct {
	key        SpanKey
	kind       EventKind
	begin, end int64
}

// DefaultTracerCapacity bounds the ring buffer at 4096 events — 96 KB of
// 24-byte entries, the same order of memory as BIOtracer's 32 KB in-RAM
// record log (§II), and for the same reason: the instrument must not grow
// without bound under load.
const DefaultTracerCapacity = 4096

// Tracer records spans and instant events into a bounded ring buffer.
// When full, the oldest events are overwritten first, exactly like
// BIOtracer's circular log. A nil Tracer is a no-op. All methods are safe
// for concurrent use, so a live ring can be read while a replay records.
//
// A Tracer from Batch instead collects records in buf, unsynchronized,
// and publishes them into parent's ring a batch at a time.
type Tracer struct {
	mu      sync.Mutex
	buf     []entry
	start   int // index of the oldest event
	n       int // live events
	dropped int64
	keys    []spanMeta         // indexed by SpanKey
	ids     map[string]SpanKey // the tuple, NUL-joined, to its key
	parent  *Tracer
}

// batchEntries is how many records a Batch collects before it publishes
// them into its parent's ring under one lock.
const batchEntries = 256

// NewTracer builds a tracer holding up to capacity events
// (DefaultTracerCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{buf: make([]entry, capacity), ids: map[string]SpanKey{}}
}

// Key interns the (layer, track, name, labels) tuple and returns its key;
// the same tuple always maps to the same key. labels are fixed for the
// key: every event recorded under it carries them. Call Key when
// telemetry is attached, not per event. A nil Tracer returns 0.
func (t *Tracer) Key(layer, track, name string, labels ...Label) SpanKey {
	if t == nil {
		return 0
	}
	t = t.published()
	// The tuple is joined in a stack buffer, so finding a key already
	// interned (every re-attach of a device) allocates nothing.
	var buf [128]byte
	id := append(append(append(buf[:0], layer...), 0), track...)
	id = append(append(id, 0), name...)
	for _, l := range labels {
		id = append(append(append(append(id, 0), l.Key...), 0), l.Value...)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if k, ok := t.ids[string(id)]; ok {
		return k
	}
	k := SpanKey(len(t.keys))
	meta := spanMeta{layer: layer, track: track, name: name}
	if len(labels) > 0 {
		meta.labels = append([]Label(nil), labels...)
	}
	t.keys = append(t.keys, meta)
	t.ids[string(id)] = k
	return k
}

// Batch returns a single-writer view of t for one goroutine, such as one
// replay: Key interns on t, and Span and Instant collect batchEntries
// records before taking t's lock once to append them all to the ring, in
// order. Until then t's readers do not see them; Flush publishes a partial
// batch. Reads of a batch report t. A batch of a batch is a new batch of
// the same tracer; a nil tracer's batch is nil.
func (t *Tracer) Batch() *Tracer {
	if t == nil {
		return nil
	}
	t = t.published()
	return &Tracer{buf: make([]entry, batchEntries), parent: t}
}

// Flush publishes a batch's collected records into its tracer's ring. It
// is a no-op on a nil tracer or one that is not a batch. Only the batch's
// writer may call it.
func (t *Tracer) Flush() {
	if t == nil || t.parent == nil || t.n == 0 {
		return
	}
	p := t.parent
	p.mu.Lock()
	p.put(t.buf[:t.n])
	p.mu.Unlock()
	t.n = 0
}

// published is the tracer whose ring holds t's records: t itself, or the
// tracer t batches for.
func (t *Tracer) published() *Tracer {
	if t.parent != nil {
		return t.parent
	}
	return t
}

func (t *Tracer) record(e entry) {
	if t.parent != nil {
		t.buf[t.n] = e
		t.n++
		if t.n == len(t.buf) {
			t.Flush()
		}
		return
	}
	t.mu.Lock()
	t.put([]entry{e})
	t.mu.Unlock()
}

// put appends es to the ring in order, overwriting the oldest records
// when it is full; the caller holds mu.
func (t *Tracer) put(es []entry) {
	for len(es) > 0 {
		w := t.start + t.n
		if w >= len(t.buf) {
			w -= len(t.buf)
		}
		c := copy(t.buf[w:], es)
		es = es[c:]
		if over := t.n + c - len(t.buf); over > 0 {
			// The copy ran over the oldest records, which start at t.start.
			t.n = len(t.buf)
			t.start = (t.start + over) % len(t.buf)
			t.dropped += int64(over)
		} else {
			t.n += c
		}
	}
}

// Span records a [begin, end] interval under key k.
func (t *Tracer) Span(k SpanKey, begin, end int64) {
	if t == nil {
		return
	}
	if end < begin {
		end = begin
	}
	t.record(entry{key: k, kind: SpanEvent, begin: begin, end: end})
}

// Instant records a point event under key k.
func (t *Tracer) Instant(k SpanKey, at int64) {
	if t == nil {
		return
	}
	t.record(entry{key: k, kind: InstantEvent, begin: at, end: at})
}

// at returns the i-th live entry, oldest first; the caller holds mu.
func (t *Tracer) at(i int) entry {
	i += t.start
	if i >= len(t.buf) {
		i -= len(t.buf)
	}
	return t.buf[i]
}

// Events returns the buffered events, oldest first, with each key expanded
// back to its layer, track, name and labels.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t = t.published()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := range out {
		e := t.at(i)
		m := &t.keys[e.key]
		out[i] = Event{Kind: e.kind, Layer: m.layer, Track: m.track, Name: m.name,
			Begin: e.begin, End: e.end, Labels: m.labels}
	}
	return out
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t = t.published()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	t = t.published()
	return len(t.buf)
}

// Dropped returns how many events were overwritten because the ring was
// full — nonzero means the buffer (-trace-buffer) was too small for the
// run and the exported trace is a suffix of the replay.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t = t.published()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// CountSpans returns how many buffered events match the layer and name
// (either may be empty to match everything).
func (t *Tracer) CountSpans(layer, name string) int64 {
	if t == nil {
		return 0
	}
	t = t.published()
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for i := 0; i < t.n; i++ {
		e := t.at(i)
		if e.kind != SpanEvent {
			continue
		}
		m := &t.keys[e.key]
		if (layer == "" || m.layer == layer) && (name == "" || m.name == name) {
			n++
		}
	}
	return n
}
