// Package blockdev models the kernel half of the paper's Fig. 1 I/O stack:
// the block layer request queue with elevator merging, and the eMMC driver
// whose packing function merges multiple write requests into one packed
// command (§II-B, Fig. 2).
//
// Two artifacts of this layer are visible in the paper's traces:
//
//   - the Linux block layer caps a single request at 512 KB, yet "due to the
//     packaging command, the largest requests in most traces are larger than
//     512 KB" (§III-B) — packing happens below the block layer;
//   - large packed requests amortize per-command overhead, which the paper
//     credits for Fig. 3's throughput growth above 1 MB.
//
// The Queue accepts upper-layer I/O, merges adjacent requests elevator-
// style, splits oversized ones at the kernel limit, and the Driver packs
// queued writes into eMMC packed commands before dispatch.
package blockdev

import (
	"fmt"
	"sort"

	"emmcio/internal/trace"
)

// MaxRequestBytes is the Linux block layer's single-request cap (§III-B).
const MaxRequestBytes = 512 * 1024

// Config tunes the queue and driver.
type Config struct {
	// MergeWindow is how long a request may wait for merge candidates
	// before it becomes eligible for dispatch (plugging), in ns.
	MergeWindow int64
	// MaxPack is the maximum number of write requests merged into one
	// packed command (eMMC 4.5 packed commands; 0 disables packing).
	MaxPack int
	// MaxPackedBytes caps a packed command's payload (0 = unlimited).
	MaxPackedBytes int
}

// DefaultConfig mirrors an eMMC 4.5 driver: a short plug window and
// packing of up to 16 sequential writes.
func DefaultConfig() Config {
	return Config{
		MergeWindow:    1_000_000, // 1 ms plug
		MaxPack:        16,
		MaxPackedBytes: 16 << 20, // the 16 MB maximum write seen in §III-A
	}
}

// Queue is the block-layer request queue.
type Queue struct {
	cfg     Config
	pending []trace.Request // sorted by arrival
	// dispBuf is the scratch backing Dispatchable's result; the returned
	// batch is valid until the next Dispatchable call, which every dispatch
	// loop satisfies by consuming the batch before polling again.
	dispBuf []trace.Request

	// Statistics.
	submitted   int
	frontMerges int
	backMerges  int
	splits      int
}

// NewQueue builds a queue.
func NewQueue(cfg Config) *Queue {
	return &Queue{cfg: cfg}
}

// Stats reports queue activity.
type QueueStats struct {
	Submitted   int
	FrontMerges int
	BackMerges  int
	Splits      int
}

// Stats returns accumulated statistics.
func (q *Queue) Stats() QueueStats {
	return QueueStats{q.submitted, q.frontMerges, q.backMerges, q.splits}
}

// Submit inserts one upper-layer request, splitting it at the kernel's
// 512 KB cap and attempting front/back merges with pending requests of the
// same type, as the elevator does.
func (q *Queue) Submit(r trace.Request) error {
	if r.Size == 0 || r.Size%trace.PageSize != 0 {
		return fmt.Errorf("blockdev: request size %d not page aligned", r.Size)
	}
	q.submitted++
	for r.Size > MaxRequestBytes {
		head := r
		head.Size = MaxRequestBytes
		q.insert(head)
		q.splits++
		r.LBA += MaxRequestBytes / trace.SectorSize
		r.Size -= MaxRequestBytes
	}
	q.insert(r)
	return nil
}

// insert attempts a merge; otherwise appends.
func (q *Queue) insert(r trace.Request) {
	for i := range q.pending {
		p := &q.pending[i]
		if p.Op != r.Op {
			continue
		}
		// Back merge: r continues p.
		if p.EndLBA() == r.LBA && int(p.Size)+int(r.Size) <= MaxRequestBytes {
			p.Size += r.Size
			q.backMerges++
			return
		}
		// Front merge: r precedes p.
		if r.EndLBA() == p.LBA && int(p.Size)+int(r.Size) <= MaxRequestBytes {
			p.LBA = r.LBA
			p.Size += r.Size
			p.Arrival = min(p.Arrival, r.Arrival)
			q.frontMerges++
			return
		}
	}
	q.pending = append(q.pending, r)
}

// Dispatchable pops every request whose plug window has expired by now,
// in arrival order. The returned slice is queue scratch, valid until the
// next Dispatchable call.
func (q *Queue) Dispatchable(now int64) []trace.Request {
	out := q.dispBuf[:0]
	keep := q.pending[:0] // in-place filter: the write index never passes the read index
	for _, r := range q.pending {
		if now-r.Arrival >= q.cfg.MergeWindow {
			out = append(out, r)
		} else {
			keep = append(keep, r)
		}
	}
	q.pending = keep
	q.dispBuf = out
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out
}

// Flush pops everything regardless of the plug window.
func (q *Queue) Flush() []trace.Request {
	out := q.pending
	q.pending = nil
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out
}

// Pending reports queued request count.
func (q *Queue) Pending() int { return len(q.pending) }

// PackedCommand is one eMMC command: either a single request or several
// write requests packed together (Fig. 2's packing function).
type PackedCommand struct {
	Reqs []trace.Request
}

// Payload returns the total bytes the command moves.
func (c PackedCommand) Payload() uint32 {
	var n uint32
	for _, r := range c.Reqs {
		n += r.Size
	}
	return n
}

// Arrival returns the earliest member arrival.
func (c PackedCommand) Arrival() int64 {
	a := c.Reqs[0].Arrival
	for _, r := range c.Reqs[1:] {
		if r.Arrival < a {
			a = r.Arrival
		}
	}
	return a
}

// Driver is the eMMC driver's pre-processing + packing stage.
type Driver struct {
	cfg Config
	// cmdBuf is the scratch backing Pack/Unpacked results; a returned batch
	// (and the batch subslices its commands alias) is valid until the next
	// Pack or Unpacked call.
	cmdBuf []PackedCommand

	packedCommands int
	packedWrites   int
}

// NewDriver builds a driver.
func NewDriver(cfg Config) *Driver {
	return &Driver{cfg: cfg}
}

// DriverStats reports packing activity.
type DriverStats struct {
	PackedCommands int // commands carrying >1 request
	PackedWrites   int // write requests that traveled inside a pack
}

// Stats returns accumulated statistics.
func (d *Driver) Stats() DriverStats {
	return DriverStats{d.packedCommands, d.packedWrites}
}

// Pack groups a dispatch batch into eMMC commands: consecutive write
// requests pack together (up to MaxPack requests / MaxPackedBytes); reads
// always travel alone, as the eMMC packed-command feature the paper
// references packs writes. A pack's members are always consecutive in the
// batch, so each command aliases a batch subslice — the returned commands
// are valid as long as the batch is, and until the next Pack/Unpacked call.
func (d *Driver) Pack(batch []trace.Request) []PackedCommand {
	out := d.cmdBuf[:0]
	i := 0
	for i < len(batch) {
		r := batch[i]
		if r.Op != trace.Write || d.cfg.MaxPack <= 1 {
			out = append(out, PackedCommand{Reqs: batch[i : i+1 : i+1]})
			i++
			continue
		}
		payload := int(r.Size)
		j := i + 1
		for j < len(batch) && j-i < d.cfg.MaxPack {
			next := batch[j]
			if next.Op != trace.Write {
				break
			}
			if d.cfg.MaxPackedBytes > 0 && payload+int(next.Size) > d.cfg.MaxPackedBytes {
				break
			}
			payload += int(next.Size)
			j++
		}
		if j-i > 1 {
			d.packedCommands++
			d.packedWrites += j - i
		}
		out = append(out, PackedCommand{Reqs: batch[i:j:j]})
		i = j
	}
	d.cmdBuf = out
	return out
}

// Unpacked wraps each request of a batch in its own command — the dispatch
// shape for devices whose Caps do not advertise packed-command support
// (sdcard, UFS). No packing statistics accrue: nothing was packed. Like
// Pack, the commands alias the batch and share the driver's scratch.
func (d *Driver) Unpacked(batch []trace.Request) []PackedCommand {
	out := d.cmdBuf[:0]
	for i := range batch {
		out = append(out, PackedCommand{Reqs: batch[i : i+1 : i+1]})
	}
	d.cmdBuf = out
	return out
}
