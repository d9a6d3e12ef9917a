// Package sim holds the simulator's timing primitives: the virtual
// timestamp and busy-until resource bookkeeping. The model has no event
// queue. The replay loops in internal/core submit requests in arrival
// order, and the NAND back end in internal/nand prices each flash operation
// by reserving the channel and plane Resources it occupies, so a request
// waits exactly until the units it needs are free.
//
// All times are expressed as int64 nanoseconds since simulation start.
// Nanosecond resolution comfortably covers both the microsecond-scale flash
// operations (Table V of the paper) and the hour-scale trace durations
// (Table IV).
package sim

// Time is a simulation timestamp in nanoseconds since simulation start.
type Time = int64

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

// State exports the resource's bookkeeping for snapshots.
func (r *Resource) State() (freeAt, busy Time) { return r.freeAt, r.busy }

// SetState restores bookkeeping captured by State.
func (r *Resource) SetState(freeAt, busy Time) { r.freeAt = freeAt; r.busy = busy }
