package core

import (
	"context"
	"fmt"

	"emmcio/internal/sim"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// Event kinds for eventReplay, carried as the sim.Handler arg.
const (
	evArrival  int64 = 0
	evComplete int64 = 1
)

// eventReplay is the event-driven replay state machine; it implements
// sim.Handler, and the event kind travels as the handler arg. Only one
// arrival event is ever in flight (lazy lookahead), so a single pending
// slot carries the request between schedule and fire. Dispatch is FIFO,
// so the dispatch count is also the pull index of the request dispatched.
type eventReplay struct {
	eng  sim.Engine
	ctx  context.Context
	dev  storage.Device
	st   trace.Stream
	name string
	sink func(trace.Request) error

	queue      []trace.Request // arrived, waiting for the device
	pending    trace.Request   // the scheduled-but-not-fired arrival
	busy       bool
	pulled     int
	dispatched int
	err        error
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
	r.pending = req
	r.pulled++
	r.eng.Schedule(req.Arrival, r, evArrival)
}

// OnEvent advances the state machine on an arrival or completion event.
func (r *eventReplay) OnEvent(_ sim.Time, arg int64) {
	switch arg {
	case evArrival:
		r.queue = append(r.queue, r.pending)
		r.scheduleNext()
	case evComplete:
		r.busy = false
	}
	r.dispatch()
}

// dispatch submits the oldest waiting request when the device is free.
func (r *eventReplay) dispatch() {
	if r.busy || len(r.queue) == 0 || r.err != nil {
		return
	}
	if err := r.ctx.Err(); err != nil {
		r.err = fmt.Errorf("core: event replay of %s canceled after %d requests: %w", r.name, r.dispatched, err)
		return
	}
	req := r.queue[0]
	r.queue = r.queue[1:]
	r.busy = true
	// Dispatch with the request's own arrival so the device's
	// wait/no-wait accounting matches the tracer's semantics: the
	// device computes serviceStart = max(arrival, freeAt) itself.
	res, err := r.dev.SubmitAt(req.Arrival, req)
	if err != nil {
		r.err = fmt.Errorf("core: event replay of %s request %d: %w", r.name, r.dispatched, err)
		return
	}
	if r.sink != nil {
		req.ServiceStart = res.ServiceStart
		req.Finish = res.Finish
		if err := r.sink(req); err != nil {
			r.err = fmt.Errorf("core: sinking %s request %d: %w", r.name, r.dispatched, err)
			return
		}
	}
	r.dispatched++
	r.eng.Schedule(res.Finish, r, evComplete)
}

// replayEventDriven is the test reference for replayLoop: an independently
// structured replay through the discrete-event kernel in internal/sim.
// Every request arrival is an event, and each completion schedules the
// dispatch of the next queued request; the sequential loop instead walks
// the stream in order and lets the device compute waiting analytically.
// Both must produce identical timestamps (TestEventDrivenMatchesSequential),
// which guards the FIFO/waiting logic against bugs a single implementation
// would hide.
//
// Arrivals are scheduled lazily, one lookahead at a time, so the engine's
// queue holds O(waiting requests). That interleaves arrival and completion
// events differently than scheduling every arrival upfront, but results
// are unaffected: the FIFO queue order depends only on the arrival
// sequence, and the device computes service start from the request's own
// arrival time, not from when dispatch runs. sink (when non-nil) receives
// completed requests in dispatch (FIFO) order.
func replayEventDriven(ctx context.Context, dev storage.Device, s Scheme, st trace.Stream, sink func(trace.Request) error) (Metrics, error) {
	r := &eventReplay{ctx: ctx, dev: dev, st: st, name: st.Name(), sink: sink}
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
