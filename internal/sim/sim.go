// Package sim provides a minimal discrete-event simulation kernel:
// a virtual clock, a time-ordered event queue, and busy-until resource
// bookkeeping. The eMMC device model in internal/emmc is built on top of it.
//
// All times are expressed as int64 nanoseconds since simulation start.
// Nanosecond resolution comfortably covers both the microsecond-scale flash
// operations (Table V of the paper) and the hour-scale trace durations
// (Table IV).
//
// The event queue is allocation-free in steady state: events live in a
// reusable slot arena ordered by an index-based binary heap (no heap of
// pointers, no container/heap boxing), and dispatched slots return to a
// free list. Callbacks are delivered through the Handler interface with an
// int64 argument, so schedulers carry state in long-lived handler objects
// instead of a heap-allocated closure per event. ScheduleFunc remains for
// tests and cold paths that prefer a closure.
package sim

import (
	"fmt"

	"emmcio/internal/telemetry"
)

// Time is a simulation timestamp in nanoseconds since simulation start.
type Time = int64

// Common durations, in nanoseconds.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Handler consumes dispatched events. Implementations are long-lived (a
// replay loop, a device plane); the per-event state travels in the int64
// argument passed to Schedule, so scheduling an event allocates nothing.
type Handler interface {
	// OnEvent runs when the clock reaches the event's timestamp. It may
	// schedule further events.
	OnEvent(now Time, arg int64)
}

// event is one slot of the engine's arena. A slot is owned by the queue
// from Schedule until dispatch; its index field tracks the heap position
// and is reset to -1 the moment the slot leaves the heap (stale-index
// hygiene — a recycled slot can never alias a live heap entry).
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	h   Handler
	arg int64
	fn  func(now Time) // ScheduleFunc path; nil for Handler events
	// index is the slot's position in the heap order, or -1 when the slot
	// is not queued (dispatched or on the free list).
	index int32
}

// engineTel holds the engine's metric handles, resolved once so the event
// loop pays a single nil check when telemetry is off.
type engineTel struct {
	dispatched *telemetry.Counter
	depth      *telemetry.Gauge
	vtime      *telemetry.Gauge
}

// Engine is a discrete-event simulation loop.
// The zero value is ready to use.
type Engine struct {
	now Time
	// events is the slot arena; order is the binary heap of slot ids
	// sorted by (at, seq); free recycles dispatched slot ids.
	events []event
	order  []int32
	free   []int32
	nextSq uint64
	tel    *engineTel
}

// SetTelemetry attaches (or, with a nil registry, detaches) observability:
// sim_events_dispatched_total counts executed events, sim_queue_depth
// tracks the pending-event count, and sim_virtual_time_ns follows the
// virtual clock.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		e.tel = nil
		return
	}
	e.tel = &engineTel{
		dispatched: reg.Counter("sim_events_dispatched_total"),
		depth:      reg.Gauge("sim_queue_depth"),
		vtime:      reg.Gauge("sim_virtual_time_ns"),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// less orders slot ids by (at, seq).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp restores the heap invariant after appending at position i.
func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.order[i], e.order[parent]) {
			break
		}
		e.order[i], e.order[parent] = e.order[parent], e.order[i]
		e.events[e.order[i]].index = int32(i)
		e.events[e.order[parent]].index = int32(parent)
		i = parent
	}
}

// siftDown restores the heap invariant after replacing the root.
func (e *Engine) siftDown(i int) {
	n := len(e.order)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && e.less(e.order[right], e.order[left]) {
			least = right
		}
		if !e.less(e.order[least], e.order[i]) {
			break
		}
		e.order[i], e.order[least] = e.order[least], e.order[i]
		e.events[e.order[i]].index = int32(i)
		e.events[e.order[least]].index = int32(least)
		i = least
	}
}

// alloc claims a slot id: recycled from the free list when possible, grown
// otherwise. Growth is amortized — a replay's steady state reuses the same
// handful of slots for millions of events.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.events = append(e.events, event{})
	return int32(len(e.events) - 1)
}

// push enqueues a filled slot into the heap order.
func (e *Engine) push(id int32) {
	e.events[id].index = int32(len(e.order))
	e.order = append(e.order, id)
	e.siftUp(len(e.order) - 1)
	if e.tel != nil {
		e.tel.depth.Set(int64(len(e.order)))
	}
}

// checkNotPast panics on scheduling in the past, which would silently
// reorder causality.
func (e *Engine) checkNotPast(at Time) {
	if at < e.now {
		head := "queue empty"
		if len(e.order) > 0 {
			head = fmt.Sprintf("queue head at %d", e.events[e.order[0]].at)
		}
		panic(fmt.Sprintf("sim: scheduling event in the past: at=%d now=%d (%s, %d events pending)",
			at, e.now, head, len(e.order)))
	}
}

// Schedule enqueues h.OnEvent(now, arg) to run at time at. The call
// allocates nothing in steady state: the event occupies a recycled arena
// slot and carries only the handler reference and argument.
func (e *Engine) Schedule(at Time, h Handler, arg int64) {
	e.checkNotPast(at)
	id := e.alloc()
	ev := &e.events[id]
	ev.at, ev.seq, ev.h, ev.arg, ev.fn = at, e.nextSq, h, arg, nil
	e.nextSq++
	e.push(id)
}

// ScheduleFunc enqueues fn to run at time at. The closure itself may
// allocate at the call site — hot loops should implement Handler and use
// Schedule instead.
func (e *Engine) ScheduleFunc(at Time, fn func(now Time)) {
	e.checkNotPast(at)
	id := e.alloc()
	ev := &e.events[id]
	ev.at, ev.seq, ev.h, ev.arg, ev.fn = at, e.nextSq, nil, 0, fn
	e.nextSq++
	e.push(id)
}

// ScheduleFuncAfter enqueues fn to run delay nanoseconds from now.
func (e *Engine) ScheduleFuncAfter(delay Time, fn func(now Time)) {
	e.ScheduleFunc(e.now+delay, fn)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.order) }

// Step executes the earliest event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.order) == 0 {
		return false
	}
	id := e.order[0]
	last := len(e.order) - 1
	e.order[0] = e.order[last]
	e.events[e.order[0]].index = 0
	e.order = e.order[:last]
	if last > 0 {
		e.siftDown(0)
	}
	ev := &e.events[id]
	// The slot leaves the heap: reset its index before dispatch so a
	// handler observing (or reusing) the slot never sees a stale position.
	ev.index = -1
	at, h, arg, fn := ev.at, ev.h, ev.arg, ev.fn
	// Clear references and recycle before dispatch — the handler may
	// schedule new events, which can then reuse this very slot.
	ev.h, ev.fn = nil, nil
	e.free = append(e.free, id)
	e.now = at
	if e.tel != nil {
		e.tel.dispatched.Inc()
		e.tel.depth.Set(int64(len(e.order)))
		e.tel.vtime.Set(e.now)
	}
	if fn != nil {
		fn(e.now)
	} else {
		h.OnEvent(e.now, arg)
	}
	return true
}

// Run drains the event queue to completion and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to deadline if it has not already passed it.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.order) > 0 && e.events[e.order[0]].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Resource models a serially reusable unit (a flash channel, a plane, the
// whole device) by tracking the earliest time it becomes free.
type Resource struct {
	freeAt Time
	busy   Time // cumulative busy time, for utilization accounting
}

// FreeAt returns the earliest time the resource is available.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Reserve occupies the resource for dur starting no earlier than from,
// and returns the (start, end) of the granted interval.
func (r *Resource) Reserve(from Time, dur Time) (start, end Time) {
	start = from
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// ReserveWindow occupies exactly [from, from+dur). The caller must have
// established from >= FreeAt(); violating that would overlap reservations,
// so it panics.
func (r *Resource) ReserveWindow(from, dur Time) {
	if from < r.freeAt {
		panic("sim: ReserveWindow overlaps an existing reservation")
	}
	r.freeAt = from + dur
	r.busy += dur
}

// BusyTime returns the cumulative reserved time.
func (r *Resource) BusyTime() Time { return r.busy }

// Reset clears the resource to idle at time zero.
func (r *Resource) Reset() { r.freeAt = 0; r.busy = 0 }

// State exports the resource's bookkeeping for snapshots.
func (r *Resource) State() (freeAt, busy Time) { return r.freeAt, r.busy }

// SetState restores bookkeeping captured by State.
func (r *Resource) SetState(freeAt, busy Time) { r.freeAt = freeAt; r.busy = busy }
