// Streaming replay: every replay path in this package pulls requests from a
// trace.Stream, so memory is O(in-flight requests) and independent of trace
// length. The slice-based entry points (Replay, ReplayObserved,
// ReplayScheduled, ReplayEventDriven) are thin adapters over the stream
// loops via trace.FromSlice, writing timestamps back into the caller's
// slice — both paths execute the identical Submit sequence, so their
// Metrics are bit-identical (TestStreamingReplayEquivalence enforces it).

package core

import (
	"context"
	"fmt"
	"sort"

	"emmcio/internal/sim"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// ReplayStream replays a stream through a fresh device of the given scheme
// and returns the replay metrics. Requests must arrive in order.
func ReplayStream(s Scheme, opt Options, st trace.Stream) (Metrics, error) {
	return ReplayStreamContext(context.Background(), s, opt, st)
}

// ReplayStreamContext is ReplayStream with cancellation: ctx is checked
// between events, so a canceled replay returns promptly with ctx's error
// instead of running the stream dry.
func ReplayStreamContext(ctx context.Context, s Scheme, opt Options, st trace.Stream) (Metrics, error) {
	dev, err := NewDevice(s, opt)
	if err != nil {
		return Metrics{}, err
	}
	return ReplayStreamSinkContext(ctx, dev, s, st, nil, nil, nil)
}

// ReplayStreamOn replays a stream on an existing device (which may hold
// state from prior traces — useful for aging studies).
func ReplayStreamOn(dev storage.Device, s Scheme, st trace.Stream) (Metrics, error) {
	return ReplayStreamObserved(dev, s, st, nil, nil)
}

// ReplayStreamObserved is ReplayStreamOn with observability, the streaming
// form of ReplayObserved.
func ReplayStreamObserved(dev storage.Device, s Scheme, st trace.Stream, reg *telemetry.Registry, tc *telemetry.Tracer) (Metrics, error) {
	return ReplayStreamSink(dev, s, st, reg, tc, nil)
}

// ReplayStreamObservedContext is ReplayStreamObserved with cancellation.
func ReplayStreamObservedContext(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, reg *telemetry.Registry, tc *telemetry.Tracer) (Metrics, error) {
	return ReplayStreamSinkContext(ctx, dev, s, st, reg, tc, nil)
}

// ReplayStreamSink is ReplayStreamObserved with a completion sink: sink
// (when non-nil) receives every request with its replayed ServiceStart and
// Finish filled in, in arrival order — the hook online analysis and
// streaming trace writers attach to. A sink error aborts the replay.
func ReplayStreamSink(dev storage.Device, s Scheme, st trace.Stream, reg *telemetry.Registry, tc *telemetry.Tracer, sink func(trace.Request) error) (Metrics, error) {
	return ReplayStreamSinkContext(context.Background(), dev, s, st, reg, tc, sink)
}

// ReplayStreamSinkContext is ReplayStreamSink with cancellation: the replay
// loop checks ctx between events, so long replays abort promptly (the
// server's job cancellation and per-job deadlines rely on this). The check
// costs nothing when ctx can never be canceled (Background/TODO).
func ReplayStreamSinkContext(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, reg *telemetry.Registry, tc *telemetry.Tracer, sink func(trace.Request) error) (Metrics, error) {
	if sink == nil {
		return replayLoop(ctx, dev, s, st, reg, tc, nil)
	}
	return replayLoop(ctx, dev, s, st, reg, tc, func(_ int, req trace.Request) error { return sink(req) })
}

// replayLoop is the one sequential replay loop behind Replay/ReplayOn/
// ReplayObserved and their stream forms: pull, submit, observe, sink.
// ctx is polled once per event; Background's nil Done channel skips the
// check entirely, keeping the uncancellable hot path identical.
func replayLoop(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, reg *telemetry.Registry, tc *telemetry.Tracer, sink func(i int, req trace.Request) error) (Metrics, error) {
	if reg != nil || tc != nil {
		dev.SetTelemetry(reg, tc)
	}
	ct := newCoreTel(reg)
	name := st.Name()
	done := ctx.Done()
	for i := 0; ; i++ {
		if done != nil {
			select {
			case <-done:
				return Metrics{}, fmt.Errorf("core: replay of %s canceled at request %d: %w", name, i, ctx.Err())
			default:
			}
		}
		req, ok, err := st.Next()
		if err != nil {
			return Metrics{}, fmt.Errorf("core: reading %s request %d: %w", name, i, err)
		}
		if !ok {
			break
		}
		res, err := dev.Submit(req)
		if err != nil {
			return Metrics{}, fmt.Errorf("core: replaying %s request %d on %s: %w", name, i, s, err)
		}
		if ct != nil {
			if req.Op == trace.Write {
				ct.writeReqs.Inc()
				ct.writeResp.Observe(res.Finish - req.Arrival)
				ct.writeServ.Observe(res.Finish - res.ServiceStart)
				ct.writeWait.Observe(res.ServiceStart - req.Arrival)
			} else {
				ct.readReqs.Inc()
				ct.readResp.Observe(res.Finish - req.Arrival)
				ct.readServ.Observe(res.Finish - res.ServiceStart)
				ct.readWait.Observe(res.ServiceStart - req.Arrival)
			}
		}
		if tc != nil {
			track := "requests/read"
			if req.Op == trace.Write {
				track = "requests/write"
			}
			tc.Span("core", track, "request", req.Arrival, res.Finish)
			tc.Span("core", track, "service", res.ServiceStart, res.Finish)
		}
		if sink != nil {
			req.ServiceStart = res.ServiceStart
			req.Finish = res.Finish
			if err := sink(i, req); err != nil {
				return Metrics{}, fmt.Errorf("core: sinking %s request %d: %w", name, i, err)
			}
		}
	}
	return deviceMetrics(dev, name, s), nil
}

// deviceMetrics assembles the full replay Metrics from device state.
func deviceMetrics(dev storage.Device, name string, s Scheme) Metrics {
	dm := dev.Metrics()
	fs := dev.FTLStats()
	m := Metrics{
		Trace:            name,
		Scheme:           s,
		Served:           int(dm.Served),
		MeanResponseNs:   dm.MeanResponseNs(),
		MeanServiceNs:    dm.MeanServiceNs(),
		NoWaitRatio:      dm.NoWaitRatio(),
		SpaceUtilization: fs.SpaceUtilization(),
		GCStallNs:        dm.GCStallNs,
		IdleGCNs:         dm.IdleGCNs,
		BufferHitRate:    dev.BufferHitRate(),
		LightWakes:       dm.LightWakes,
		DeepWakes:        dm.DeepWakes,
		ProgramFaults:    fs.ProgramFaults,
		EraseFaults:      fs.EraseFaults,
		ReadFaults:       dm.ReadFaults,
		RetiredBlocks:    fs.RetiredBlocks,
		RecoveryNs:       dm.RecoveryNs,
	}
	if fs.HostProgrammedPages > 0 {
		m.WriteAmplification = 1 + float64(fs.GC.PageMoves)/float64(fs.HostProgrammedPages)
	}
	return m
}

// ReplayScheduledStream replays a stream through a fresh device with an
// OS-level dispatcher applying the given policy to waiting requests — the
// streaming form of ReplayScheduled. Memory is O(waiting queue): the
// dispatcher keeps one lookahead request plus whatever has arrived but not
// yet dispatched. sink (when non-nil) receives completed requests in
// dispatch order, which under SJF or read-first is not arrival order.
func ReplayScheduledStream(s Scheme, opt Options, st trace.Stream, policy SchedPolicy, sink func(trace.Request) error) (Metrics, error) {
	return ReplayScheduledStreamContext(context.Background(), s, opt, st, policy, sink)
}

// ReplayScheduledStreamContext is ReplayScheduledStream with cancellation:
// ctx is checked once per dispatch.
func ReplayScheduledStreamContext(ctx context.Context, s Scheme, opt Options, st trace.Stream, policy SchedPolicy, sink func(trace.Request) error) (Metrics, error) {
	if sink == nil {
		return scheduledLoop(ctx, s, opt, st, policy, nil)
	}
	return scheduledLoop(ctx, s, opt, st, policy, func(_ int, req trace.Request) error { return sink(req) })
}

// scheduledLoop is the dispatcher behind ReplayScheduled and its stream
// form. The sink receives each completed request with its pull index.
func scheduledLoop(ctx context.Context, s Scheme, opt Options, st trace.Stream, policy SchedPolicy, sink func(idx int, req trace.Request) error) (Metrics, error) {
	dev, err := NewDevice(s, opt)
	if err != nil {
		return Metrics{}, err
	}

	type item struct {
		idx int
		req trace.Request
	}
	name := st.Name()
	var queue []item
	var deviceFree int64
	noWait := 0

	// One-request lookahead over the stream, replacing the slice index.
	next := 0
	var head trace.Request
	headOK := false
	pull := func() error {
		r, ok, err := st.Next()
		if err != nil {
			return fmt.Errorf("core: reading %s request %d: %w", name, next, err)
		}
		head, headOK = r, ok
		return nil
	}
	if err := pull(); err != nil {
		return Metrics{}, err
	}

	pick := func() int {
		best := 0
		switch policy {
		case SchedSJF:
			for i := 1; i < len(queue); i++ {
				if queue[i].req.Size < queue[best].req.Size {
					best = i
				}
			}
		case SchedReadFirst:
			for i := 1; i < len(queue); i++ {
				bi, ii := queue[best].req, queue[i].req
				if ii.Op == trace.Read && bi.Op != trace.Read {
					best = i
				}
			}
		}
		return best
	}

	done := ctx.Done()
	for headOK || len(queue) > 0 {
		if done != nil {
			select {
			case <-done:
				return Metrics{}, fmt.Errorf("core: scheduled replay of %s canceled at request %d: %w", name, next, ctx.Err())
			default:
			}
		}
		// Admit everything that has arrived by the time the device frees.
		for headOK && (len(queue) == 0 || head.Arrival <= deviceFree) {
			queue = append(queue, item{idx: next, req: head})
			next++
			if err := pull(); err != nil {
				return Metrics{}, err
			}
		}
		i := pick()
		it := queue[i]
		queue = append(queue[:i], queue[i+1:]...)

		dispatchAt := it.req.Arrival
		if deviceFree > dispatchAt {
			dispatchAt = deviceFree
		}
		res, err := dev.SubmitAt(dispatchAt, it.req)
		if err != nil {
			return Metrics{}, fmt.Errorf("core: scheduled replay of %s: %w", name, err)
		}
		deviceFree = res.Finish
		if res.ServiceStart == it.req.Arrival {
			noWait++
		}
		if sink != nil {
			it.req.ServiceStart = res.ServiceStart
			it.req.Finish = res.Finish
			if err := sink(it.idx, it.req); err != nil {
				return Metrics{}, fmt.Errorf("core: sinking %s request %d: %w", name, it.idx, err)
			}
		}
	}

	// The device sees every dispatch at deviceFree, so its own wait
	// accounting never fires; NoWait is the paper's ServiceStart == Arrival.
	m := deviceMetrics(dev, name, s)
	if m.Served > 0 {
		m.NoWaitRatio = float64(noWait) / float64(m.Served)
	}
	return m, nil
}

// ReplayEventDrivenStream replays a stream through the discrete-event
// kernel — the streaming form of ReplayEventDriven. Arrivals are scheduled
// lazily, one lookahead at a time (arrival i fires, arrival i+1 enters the
// event queue), so the engine's queue holds O(waiting requests) rather than
// the whole trace. sink (when non-nil) receives completed requests in
// dispatch (FIFO) order.
func ReplayEventDrivenStream(s Scheme, opt Options, st trace.Stream, sink func(trace.Request) error) (Metrics, error) {
	return ReplayEventDrivenStreamContext(context.Background(), s, opt, st, sink)
}

// ReplayEventDrivenStreamContext is ReplayEventDrivenStream with
// cancellation: ctx is checked once per dispatched request.
func ReplayEventDrivenStreamContext(ctx context.Context, s Scheme, opt Options, st trace.Stream, sink func(trace.Request) error) (Metrics, error) {
	if sink == nil {
		return eventLoop(ctx, s, opt, st, nil)
	}
	return eventLoop(ctx, s, opt, st, func(_ int, req trace.Request) error { return sink(req) })
}

// Event kinds for eventReplay, carried as the sim.Handler arg.
const (
	evArrival  int64 = 0
	evComplete int64 = 1
)

// eventEntry is one arrived request waiting for the device.
type eventEntry struct {
	idx int
	req trace.Request
}

// eventReplay is the event-driven replay state machine. It implements
// sim.Handler, so arrival and completion events reuse pooled engine slots
// instead of allocating a closure per event; the event kind travels as the
// handler arg. Only one arrival event is ever in flight (lazy lookahead),
// so a single pending slot carries the request between schedule and fire.
type eventReplay struct {
	eng  sim.Engine
	dev  storage.Device
	st   trace.Stream
	name string
	done <-chan struct{}
	ctx  context.Context
	sink func(idx int, req trace.Request) error

	// queue[head:] holds arrived requests in FIFO order; the drained prefix
	// is compacted away once it dominates, keeping the backing array bounded
	// by the peak waiting depth.
	queue      []eventEntry
	head       int
	busy       bool
	pulled     int
	dispatched int

	pending   eventEntry // the scheduled-but-not-fired arrival
	pendingOK bool

	err error
}

// scheduleNext pulls one request and schedules its arrival event.
func (r *eventReplay) scheduleNext() {
	if r.err != nil {
		return
	}
	req, ok, err := r.st.Next()
	if err != nil {
		r.err = fmt.Errorf("core: reading %s request %d: %w", r.name, r.pulled, err)
		return
	}
	if !ok {
		return
	}
	r.pending = eventEntry{idx: r.pulled, req: req}
	r.pendingOK = true
	r.pulled++
	r.eng.Schedule(req.Arrival, r, evArrival)
}

// OnEvent advances the state machine on an arrival or completion event.
func (r *eventReplay) OnEvent(now sim.Time, arg int64) {
	switch arg {
	case evArrival:
		r.queue = append(r.queue, r.pending)
		r.pending = eventEntry{}
		r.pendingOK = false
		r.scheduleNext()
	case evComplete:
		r.busy = false
	}
	r.dispatch(now)
}

// dispatch submits the oldest waiting request when the device is free.
func (r *eventReplay) dispatch(now sim.Time) {
	if r.busy || r.head == len(r.queue) || r.err != nil {
		return
	}
	if r.done != nil {
		select {
		case <-r.done:
			r.err = fmt.Errorf("core: event replay of %s canceled after %d requests: %w", r.name, r.dispatched, r.ctx.Err())
			return
		default:
		}
	}
	e := r.queue[r.head]
	r.queue[r.head] = eventEntry{}
	r.head++
	if r.head == len(r.queue) {
		r.queue = r.queue[:0]
		r.head = 0
	} else if r.head >= 64 && r.head*2 >= len(r.queue) {
		n := copy(r.queue, r.queue[r.head:])
		clearTail := r.queue[n:]
		for i := range clearTail {
			clearTail[i] = eventEntry{}
		}
		r.queue = r.queue[:n]
		r.head = 0
	}
	r.busy = true
	// Dispatch with the request's own arrival so the device's
	// wait/no-wait accounting matches the tracer's semantics: the
	// device computes serviceStart = max(arrival, freeAt) itself.
	res, err := r.dev.SubmitAt(e.req.Arrival, e.req)
	if err != nil {
		r.err = fmt.Errorf("core: event replay of %s request %d: %w", r.name, e.idx, err)
		return
	}
	r.dispatched++
	if r.sink != nil {
		e.req.ServiceStart = res.ServiceStart
		e.req.Finish = res.Finish
		if err := r.sink(e.idx, e.req); err != nil {
			r.err = fmt.Errorf("core: sinking %s request %d: %w", r.name, e.idx, err)
			return
		}
	}
	r.eng.Schedule(res.Finish, r, evComplete)
}

// eventLoop is the event-driven replay behind ReplayEventDriven and its
// stream form. Tie handling note: lazy arrival scheduling interleaves
// arrival and completion events differently than scheduling every arrival
// upfront, but results are unaffected — the FIFO queue order depends only
// on the arrival sequence, and the device computes service start from the
// request's own arrival time, not from when dispatch runs.
func eventLoop(ctx context.Context, s Scheme, opt Options, st trace.Stream, sink func(idx int, req trace.Request) error) (Metrics, error) {
	dev, err := NewDevice(s, opt)
	if err != nil {
		return Metrics{}, err
	}
	r := &eventReplay{
		dev:  dev,
		st:   st,
		name: st.Name(),
		done: ctx.Done(),
		ctx:  ctx,
		sink: sink,
	}
	r.scheduleNext()
	r.eng.Run()
	if r.err != nil {
		return Metrics{}, r.err
	}
	if r.dispatched != r.pulled {
		return Metrics{}, fmt.Errorf("core: event replay served %d of %d requests", r.dispatched, r.pulled)
	}

	return deviceMetrics(dev, r.name, s), nil
}

// writeBack returns a sink that writes replayed timestamps into the
// caller's slice by pull index — the adapter every slice-based replay path
// uses to keep its fill-in-place contract.
func writeBack(tr *trace.Trace) func(idx int, req trace.Request) error {
	return func(idx int, req trace.Request) error {
		tr.Reqs[idx].ServiceStart = req.ServiceStart
		tr.Reqs[idx].Finish = req.Finish
		return nil
	}
}

// sortByArrivalStable restores arrival order after an out-of-order replay.
func sortByArrivalStable(tr *trace.Trace) {
	sort.SliceStable(tr.Reqs, func(a, b int) bool { return tr.Reqs[a].Arrival < tr.Reqs[b].Arrival })
}
