package trace

import (
	"context"
	"errors"
	"fmt"
)

// Stream is a pull-based iterator over requests: the streaming counterpart
// of a materialized Trace. Next returns the next request in arrival order;
// ok is false once the stream is exhausted (in which case req is the zero
// Request and err is nil). An error terminates the stream: after a non-nil
// err every subsequent Next returns the same err.
//
// Reset rewinds the stream to its first request so the identical sequence
// can be replayed again — the determinism contract every consumer relies
// on: two full drains of one stream, separated by Reset, yield the same
// requests in the same order. Streams that cannot rewind (a pipe, a
// one-shot transformer) return an error from Reset.
//
// A Stream is single-goroutine: callers that fan work out give each worker
// its own stream (re-open the file, re-build the generator) rather than
// sharing one.
type Stream interface {
	// Name identifies the workload, like Trace.Name.
	Name() string
	// Next returns the next request. ok is false at end of stream.
	Next() (req Request, ok bool, err error)
	// Reset rewinds to the first request, or reports why it cannot.
	Reset() error
}

// ErrNoReset marks streams that cannot rewind (pipes, one-shot sources).
var ErrNoReset = errors.New("trace: stream cannot be reset")

// sliceStream iterates over a materialized trace without copying it. It
// never mutates the underlying requests, so many sliceStreams may share
// one immutable trace.
type sliceStream struct {
	t *Trace
	i int
}

// FromSlice adapts a materialized trace to the Stream interface. The trace
// is not copied: the stream reads t.Reqs in place, so the caller must not
// mutate the trace while the stream is live. Reset rewinds to index 0.
func FromSlice(t *Trace) Stream { return &sliceStream{t: t} }

func (s *sliceStream) Name() string { return s.t.Name }

func (s *sliceStream) Next() (Request, bool, error) {
	if s.i >= len(s.t.Reqs) {
		return Request{}, false, nil
	}
	r := s.t.Reqs[s.i]
	s.i++
	return r, true, nil
}

func (s *sliceStream) Reset() error { s.i = 0; return nil }

// Collect drains a stream into a materialized trace — the bridge back to
// every slice-based helper (Merge, Window, Validate). It resets the stream
// first so a partially consumed stream still collects from the top, and
// only exists for workloads small enough to hold in memory; the streaming
// replay and analysis paths never call it.
func Collect(s Stream) (*Trace, error) {
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return readAll(s)
}

// readAll drains s from its current position without resetting it, so the
// slice readers work over pipes.
func readAll(s Stream) (*Trace, error) {
	t := &Trace{Name: s.Name()}
	for {
		r, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return t, nil
		}
		t.Reqs = append(t.Reqs, r)
	}
}

// generatedStream lazily materializes a generated trace on first use. The
// workload generators are inherently whole-trace (temporal-locality
// calibration is a two-pass fit over the finished request sequence), so
// "streaming generation" means deferring and privatizing the allocation:
// nothing is generated until a job actually pulls, each job owns its own
// copy, and the memory is reclaimed when the job drops the stream — instead
// of every generated trace living in a process-wide cache forever.
type generatedStream struct {
	name string
	gen  func() *Trace
	t    *Trace
	i    int
}

// Generated wraps a trace generator as a Stream. gen runs at most once, on
// the first Next; Reset rewinds without regenerating. gen must be
// deterministic (same trace every call) for the stream's determinism
// contract to hold.
func Generated(name string, gen func() *Trace) Stream {
	return &generatedStream{name: name, gen: gen}
}

func (g *generatedStream) Name() string { return g.name }

func (g *generatedStream) Next() (Request, bool, error) {
	if g.t == nil {
		g.t = g.gen()
	}
	if g.i >= len(g.t.Reqs) {
		return Request{}, false, nil
	}
	r := g.t.Reqs[g.i]
	g.i++
	return r, true, nil
}

func (g *generatedStream) Reset() error { g.i = 0; return nil }

// mapStream applies fn to every request of a source stream.
type mapStream struct {
	src Stream
	fn  func(Request) Request
}

// MapStream transforms each request of src with fn — the streaming form of
// Scale and Shift. fn must be pure (no state between calls) so Reset
// replays identically.
func MapStream(src Stream, fn func(Request) Request) Stream {
	return &mapStream{src: src, fn: fn}
}

func (m *mapStream) Name() string { return m.src.Name() }

func (m *mapStream) Next() (Request, bool, error) {
	r, ok, err := m.src.Next()
	if !ok || err != nil {
		return Request{}, false, err
	}
	return m.fn(r), true, nil
}

func (m *mapStream) Reset() error { return m.src.Reset() }

// ScaleStream is the streaming form of Trace.Scale: arrivals multiplied by
// factor, replay timestamps cleared. Panics on a non-positive factor, like
// Scale.
func ScaleStream(src Stream, factor float64) Stream {
	if factor <= 0 {
		panic("trace: non-positive scale factor")
	}
	return MapStream(src, func(r Request) Request {
		r.Arrival = int64(float64(r.Arrival) * factor)
		r.ServiceStart = 0
		r.Finish = 0
		return r
	})
}

// ShiftStream is the streaming form of Trace.Shift: all timestamps moved by
// delta. Like Shift, it panics if an arrival would become negative.
func ShiftStream(src Stream, delta int64) Stream {
	return MapStream(src, func(r Request) Request {
		r.Arrival += delta
		if r.Arrival < 0 {
			panic("trace: shift made an arrival negative")
		}
		if r.ServiceStart != 0 || r.Finish != 0 {
			r.ServiceStart += delta
			r.Finish += delta
		}
		return r
	})
}

// ClearStream zeroes replay timestamps, the streaming ClearTimestamps.
func ClearStream(src Stream) Stream {
	return MapStream(src, func(r Request) Request {
		r.ServiceStart = 0
		r.Finish = 0
		return r
	})
}

// ctxStream aborts the stream once its context is done.
type ctxStream struct {
	Stream
	done <-chan struct{}
	err  func() error
}

// WithContext bounds a stream by a context: once ctx is done, Next returns
// ctx's error instead of pulling from the source. This cancels any consumer
// loop that honors stream errors — including ones that know nothing about
// contexts (the biotracer collection path) — between two requests. A
// context that can never be canceled wraps to the source unchanged.
func WithContext(ctx context.Context, src Stream) Stream {
	done := ctx.Done()
	if done == nil {
		return src
	}
	return &ctxStream{Stream: src, done: done, err: ctx.Err}
}

func (c *ctxStream) Next() (Request, bool, error) {
	select {
	case <-c.done:
		return Request{}, false, fmt.Errorf("trace: stream %s canceled: %w", c.Name(), c.err())
	default:
	}
	return c.Stream.Next()
}

// namedStream overrides the source's name.
type namedStream struct {
	Stream
	name string
}

// Named returns src reported under a different name — for derived streams
// (splits, filters) whose identity should be distinguishable in metrics and
// telemetry labels.
func Named(src Stream, name string) Stream { return &namedStream{Stream: src, name: name} }

func (n *namedStream) Name() string { return n.name }

// filterStream drops requests fn rejects.
type filterStream struct {
	src  Stream
	keep func(Request) bool
}

// FilterStream keeps only the requests keep accepts (address-range splits,
// op filters). keep must be pure so Reset replays identically.
func FilterStream(src Stream, keep func(Request) bool) Stream {
	return &filterStream{src: src, keep: keep}
}

func (f *filterStream) Name() string { return f.src.Name() }

func (f *filterStream) Next() (Request, bool, error) {
	for {
		r, ok, err := f.src.Next()
		if !ok || err != nil {
			return Request{}, false, err
		}
		if f.keep(r) {
			return r, true, nil
		}
	}
}

func (f *filterStream) Reset() error { return f.src.Reset() }

// mergeStream interleaves k source streams by arrival time with one
// request of lookahead per source — the k-way streaming form of Merge.
type mergeStream struct {
	name string
	srcs []Stream
	head []Request // lookahead per source
	live []bool    // head[i] is valid
}

// MergeStreams interleaves the sources by arrival time into one stream, the
// way the block layer sees concurrently running applications. Ties go to
// the lowest source index, matching the two-way Merge (which prefers its
// first argument on equal arrivals), so MergeStreams(n, FromSlice(a),
// FromSlice(b)) reproduces Merge(n, a, b) exactly.
func MergeStreams(name string, srcs ...Stream) Stream {
	return &mergeStream{
		name: name,
		srcs: srcs,
		head: make([]Request, len(srcs)),
		live: make([]bool, len(srcs)),
	}
}

func (m *mergeStream) Name() string { return m.name }

func (m *mergeStream) Next() (Request, bool, error) {
	best := -1
	for i, src := range m.srcs {
		if !m.live[i] {
			r, ok, err := src.Next()
			if err != nil {
				return Request{}, false, err
			}
			if !ok {
				continue
			}
			m.head[i], m.live[i] = r, true
		}
		if best < 0 || m.head[i].Arrival < m.head[best].Arrival {
			best = i
		}
	}
	if best < 0 {
		return Request{}, false, nil
	}
	m.live[best] = false
	return m.head[best], true, nil
}

func (m *mergeStream) Reset() error {
	for i, src := range m.srcs {
		if err := src.Reset(); err != nil {
			return err
		}
		m.live[i] = false
	}
	return nil
}

// repeatStream concatenates n back-to-back sessions of one source — the
// streaming Concat of copies. It tracks the running session duration
// (latest arrival or finish, exactly Trace.Duration) to place each next
// session, so the output matches Concat of n Shift copies bit for bit.
type repeatStream struct {
	src      Stream
	n        int
	gap      int64
	session  int
	offset   int64 // shift applied to the current session
	duration int64 // max shifted arrival/finish seen in the current session
}

// Repeat yields n back-to-back sessions of src separated by gap
// nanoseconds, without materializing any of them: the streaming equivalent
// of trace.Concat over n copies. src must support Reset.
func Repeat(src Stream, n int, gap int64) Stream {
	if n < 1 {
		panic("trace: Repeat needs at least one session")
	}
	return &repeatStream{src: src, n: n, gap: gap}
}

func (r *repeatStream) Name() string { return r.src.Name() }

func (r *repeatStream) Next() (Request, bool, error) {
	for {
		req, ok, err := r.src.Next()
		if err != nil {
			return Request{}, false, err
		}
		if !ok {
			if r.session+1 >= r.n {
				return Request{}, false, nil
			}
			r.session++
			r.offset = r.duration + r.gap
			r.duration = 0
			if err := r.src.Reset(); err != nil {
				return Request{}, false, fmt.Errorf("trace: repeating session %d: %w", r.session, err)
			}
			continue
		}
		req.Arrival += r.offset
		if req.Arrival < 0 {
			panic("trace: shift made an arrival negative")
		}
		if req.ServiceStart != 0 || req.Finish != 0 {
			req.ServiceStart += r.offset
			req.Finish += r.offset
		}
		if req.Arrival > r.duration {
			r.duration = req.Arrival
		}
		if req.Finish > r.duration {
			r.duration = req.Finish
		}
		return req, true, nil
	}
}

func (r *repeatStream) Reset() error {
	if err := r.src.Reset(); err != nil {
		return err
	}
	r.session, r.offset, r.duration = 0, 0, 0
	return nil
}
