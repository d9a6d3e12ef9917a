// Package trace defines the block-level I/O trace model used throughout the
// reproduction: the record format BIOtracer emits (arrival time, logical
// address, size, access type, service-start time, finish time — §II-B of the
// paper), a trace container, and helper operations (sorting, merging,
// windowing, validation).
package trace

import (
	"errors"
	"fmt"
	"sort"
)

// Op is the access type of a request.
type Op uint8

const (
	// Read is a read request.
	Read Op = iota
	// Write is a write request.
	Write
)

// String returns "R" or "W", the notation used in the trace files.
func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Block device constants. All request sizes in the traces are aligned to the
// 4 KB flash page size at file-system level (§III-B), and addresses are kept
// in 512-byte sectors as the Linux block layer does.
const (
	SectorSize     = 512
	PageSize       = 4096
	SectorsPerPage = PageSize / SectorSize
)

// Request is one block-layer I/O request together with the three timestamps
// BIOtracer records: arrival at the block layer, the moment the eMMC driver
// actually issues it to the device, and its completion.
// Times are nanoseconds since trace start. ServiceStart and Finish are zero
// until the request has been replayed through a device model or tracer.
type Request struct {
	// Arrival is when the request was created at the block layer (step 1).
	Arrival int64
	// LBA is the starting logical address in 512-byte sectors.
	LBA uint64
	// Size is the request payload in bytes (a multiple of PageSize).
	Size uint32
	// Op is Read or Write.
	Op Op
	// ServiceStart is when the request was issued to the device (step 2).
	ServiceStart int64
	// Finish is when the device driver completed the request (step 3).
	Finish int64
}

// Pages returns the number of 4 KB pages the request spans.
func (r Request) Pages() int { return int((r.Size + PageSize - 1) / PageSize) }

// EndLBA returns the first sector past the request.
func (r Request) EndLBA() uint64 { return r.LBA + uint64(r.Size)/SectorSize }

// ResponseTime is Finish − Arrival; zero until the request has finished
// (before replay, or issued but not yet completed).
func (r Request) ResponseTime() int64 {
	if r.Finish == 0 {
		return 0
	}
	return r.Finish - r.Arrival
}

// ServiceTime is Finish − ServiceStart; zero until the request has
// finished.
func (r Request) ServiceTime() int64 {
	if r.Finish == 0 {
		return 0
	}
	return r.Finish - r.ServiceStart
}

// WaitTime is ServiceStart − Arrival: the time spent queued before the
// device accepted the request. The paper's NoWait requests have WaitTime 0.
func (r Request) WaitTime() int64 { return r.ServiceStart - r.Arrival }

// Trace is an ordered sequence of requests from one collecting session.
type Trace struct {
	// Name identifies the application or combo (e.g. "Twitter", "Music/WB").
	Name string
	// Reqs are the requests in arrival order.
	Reqs []Request
}

// Duration returns the recording duration: the latest of arrival and finish
// times over all requests. For unreplayed traces this is the last arrival.
func (t *Trace) Duration() int64 {
	var d int64
	for i := range t.Reqs {
		if t.Reqs[i].Arrival > d {
			d = t.Reqs[i].Arrival
		}
		if t.Reqs[i].Finish > d {
			d = t.Reqs[i].Finish
		}
	}
	return d
}

// TotalBytes returns the total payload moved (reads plus writes).
func (t *Trace) TotalBytes() uint64 {
	var n uint64
	for i := range t.Reqs {
		n += uint64(t.Reqs[i].Size)
	}
	return n
}

// WrittenBytes returns the total write payload.
func (t *Trace) WrittenBytes() uint64 {
	var n uint64
	for i := range t.Reqs {
		if t.Reqs[i].Op == Write {
			n += uint64(t.Reqs[i].Size)
		}
	}
	return n
}

// WriteCount returns the number of write requests.
func (t *Trace) WriteCount() int {
	n := 0
	for i := range t.Reqs {
		if t.Reqs[i].Op == Write {
			n++
		}
	}
	return n
}

// SortByArrival orders requests by arrival time (stable).
func (t *Trace) SortByArrival() {
	sort.SliceStable(t.Reqs, func(i, j int) bool {
		return t.Reqs[i].Arrival < t.Reqs[j].Arrival
	})
}

// Window returns a shallow copy holding only requests with
// from <= Arrival < to, with arrivals rebased to the window start.
func (t *Trace) Window(from, to int64) *Trace {
	out := &Trace{Name: t.Name}
	for _, r := range t.Reqs {
		if r.Arrival >= from && r.Arrival < to {
			r.Arrival -= from
			if r.ServiceStart != 0 || r.Finish != 0 {
				r.ServiceStart -= from
				r.Finish -= from
			}
			out.Reqs = append(out.Reqs, r)
		}
	}
	return out
}

// ClearTimestamps zeroes the replay-produced fields so the trace can be
// replayed again on a fresh device.
func (t *Trace) ClearTimestamps() {
	for i := range t.Reqs {
		t.Reqs[i].ServiceStart = 0
		t.Reqs[i].Finish = 0
	}
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Name: t.Name, Reqs: make([]Request, len(t.Reqs))}
	copy(out.Reqs, t.Reqs)
	return out
}

// Merge interleaves two traces by arrival time into a new trace, the way the
// block layer sees two concurrently running applications (§III-D combos).
func Merge(name string, a, b *Trace) *Trace {
	out := &Trace{Name: name, Reqs: make([]Request, 0, len(a.Reqs)+len(b.Reqs))}
	i, j := 0, 0
	for i < len(a.Reqs) && j < len(b.Reqs) {
		if a.Reqs[i].Arrival <= b.Reqs[j].Arrival {
			out.Reqs = append(out.Reqs, a.Reqs[i])
			i++
		} else {
			out.Reqs = append(out.Reqs, b.Reqs[j])
			j++
		}
	}
	out.Reqs = append(out.Reqs, a.Reqs[i:]...)
	out.Reqs = append(out.Reqs, b.Reqs[j:]...)
	return out
}

// Validation errors.
var (
	ErrUnsorted      = errors.New("trace: requests not in arrival order")
	ErrUnaligned     = errors.New("trace: request size not page-aligned")
	ErrZeroSize      = errors.New("trace: zero-size request")
	ErrBadTimestamps = errors.New("trace: finish precedes service start or service start precedes arrival")
)

// Validate checks structural invariants: arrival-sorted, page-aligned,
// non-zero sizes, and (when replayed) causally ordered timestamps.
func (t *Trace) Validate() error {
	var prev int64
	for i, r := range t.Reqs {
		if r.Arrival < prev {
			return fmt.Errorf("%w (index %d)", ErrUnsorted, i)
		}
		prev = r.Arrival
		if r.Size == 0 {
			return fmt.Errorf("%w (index %d)", ErrZeroSize, i)
		}
		if r.Size%PageSize != 0 || r.LBA%SectorsPerPage != 0 {
			return fmt.Errorf("%w (index %d)", ErrUnaligned, i)
		}
		if r.ServiceStart != 0 || r.Finish != 0 {
			if r.ServiceStart < r.Arrival || r.Finish < r.ServiceStart {
				return fmt.Errorf("%w (index %d)", ErrBadTimestamps, i)
			}
		}
	}
	return nil
}

// Scale returns a copy with all arrival times multiplied by factor — a
// rate-scaling tool for what-if studies (factor < 1 compresses the trace,
// raising the arrival rate). Replay timestamps are cleared, as they no
// longer correspond to any device pass. It collects ScaleStream over the
// trace.
func (t *Trace) Scale(factor float64) *Trace {
	out, _ := Collect(ScaleStream(FromSlice(t), factor)) // a slice stream never fails
	return out
}

// Shift returns a copy with all timestamps moved by delta nanoseconds
// (session concatenation). Panics if any arrival would become negative. It
// collects ShiftStream over the trace.
func (t *Trace) Shift(delta int64) *Trace {
	out, _ := Collect(ShiftStream(FromSlice(t), delta)) // a slice stream never fails
	return out
}

// Concat appends b after a with a gap, producing one longer session.
func Concat(name string, gap int64, sessions ...*Trace) *Trace {
	out := &Trace{Name: name}
	var offset int64
	for _, s := range sessions {
		shifted := s.Shift(offset)
		out.Reqs = append(out.Reqs, shifted.Reqs...)
		offset = shifted.Duration() + gap
	}
	return out
}
