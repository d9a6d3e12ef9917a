// Package ufs models a UFS/NVMe-flavoured storage device behind the
// storage.Device seam: the same NAND back end as the eMMC model
// (internal/nand — flash array, FTL, fault injection, GC pricing, the read
// path and the staging FIFO are one implementation, so wear/aging and
// faults work identically), but a different host interface and controller
// discipline:
//
//   - a multi-queue command queue: Queues × QueueDepth command slots, so a
//     request waits only for a free slot, not for the whole device to go
//     idle, and completions are out of order by sim-time — the
//     forward-looking answer to the paper's Implication 1;
//   - an interleaving controller over a higher-parallelism geometry: the
//     channel frees after the data transfer and flash operations overlap
//     across planes (the SSD-style discipline eMMC 4.51 lacks);
//   - a write booster: an SLC-mode staging area that absorbs writes at
//     fast-page program latency and destages them to the main MLC pools
//     during idle gaps (or synchronously under pressure), the UFS 3.1
//     WriteBooster feature.
//
// No packed commands: UFS moves each request as its own UPIU exchange, and
// Caps advertises that, so the blockdev driver never packs for this device.
package ufs

import (
	"fmt"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/nand"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// Config describes a UFS device instance.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	// Pools lists the per-plane page-size pools, largest page first.
	Pools []flash.PoolSpec
	// GCFreeBlocks is the per-plane-pool free-block threshold.
	GCFreeBlocks int
	// Wear selects the FTL wear-leveling policy.
	Wear ftl.WearPolicy

	// Queues is the number of hardware submission queues (default 1; NVMe
	// would use several). QueueDepth is the command slots per queue
	// (default 32, the UFS 3.x task set size). Their product is how many
	// commands the device holds in flight.
	Queues     int
	QueueDepth int

	// WriteBoosterBytes is the SLC staging capacity (0 disables the
	// booster). Booster writes pay fast-page program latency; destage to
	// the main pools happens in idle gaps or synchronously under pressure.
	WriteBoosterBytes int64

	// FlushNs is the cost of a cache-flush barrier. Zero selects the
	// 100 µs default (UFS flushes are cheaper than eMMC's CMD6 path).
	FlushNs int64

	// Faults enables deterministic fault injection (shared model with the
	// other backends). Nil or rate-zero models perfect hardware.
	Faults *faults.Config
}

// slots returns the total command-slot count.
func (c Config) slots() int { return c.Queues * c.QueueDepth }

// maxSlots bounds Queues × QueueDepth. The device keeps one timestamp per
// command slot, so a job spec's queue shape must not size it past memory.
const maxSlots = 1 << 16

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if err := c.params().Validate(); err != nil {
		return err
	}
	if c.Queues < 1 || c.QueueDepth < 1 || c.QueueDepth > maxSlots/c.Queues {
		return fmt.Errorf("ufs: need 1 to %d command slots in at least one queue, got %dx%d", maxSlots, c.Queues, c.QueueDepth)
	}
	return nil
}

// Device is one simulated UFS instance: command-slot admission and the
// SLC-priced booster write path in front of the shared NAND back end. It
// implements storage.Device.
type Device struct {
	nand.Backend
	cfg Config
	// slots holds the free-at time of every command slot. A request claims
	// the earliest-free slot, so completions are out of order by sim-time:
	// a short read admitted after a long write finishes first.
	slots []int64
}

// params maps the configuration onto the back end's. UFS always
// interleaves (the channel frees after the transfer and operations
// pipeline per plane), whatever the Timing says; the booster is an SLC
// stage.
func (c Config) params() nand.Params {
	return nand.Params{
		Name:           "ufs",
		Geometry:       c.Geometry,
		Timing:         c.Timing,
		Pools:          c.Pools,
		GCFreeBlocks:   c.GCFreeBlocks,
		Wear:           c.Wear,
		Faults:         c.Faults,
		Interleave:     true,
		StageBytes:     c.WriteBoosterBytes,
		SLCStage:       true,
		StageGauge:     "booster_bytes",
		DestageCounter: "booster_destages_total",
	}
}

// withDefaults fills the zero queue shape with 1 queue × 32 slots.
func (c Config) withDefaults() Config {
	if c.Queues == 0 {
		c.Queues = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	return c
}

// New builds a fresh device.
func New(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := nand.New(cfg.params())
	if err != nil {
		return nil, err
	}
	return &Device{Backend: b, cfg: cfg, slots: make([]int64, cfg.slots())}, nil
}

// Caps advertises the command-queued, unpacked interface.
func (d *Device) Caps() storage.Caps {
	return storage.Caps{Backend: storage.BackendUFS, PackedCommands: false, QueueDepth: d.cfg.slots()}
}

// Config returns the device configuration.
func (d *Device) Config() Config {
	c := d.cfg
	c.Faults = d.FaultConfig()
	return c
}

// admit claims the earliest-free command slot for a request dispatched at
// dispatchAt. Ties break on slot index, keeping the schedule deterministic.
func (d *Device) admit(dispatchAt int64) (slot int, start int64, waited bool) {
	slot = 0
	for i := 1; i < len(d.slots); i++ {
		if d.slots[i] < d.slots[slot] {
			slot = i
		}
	}
	start = dispatchAt
	if d.slots[slot] > start {
		start = d.slots[slot]
		waited = true
	}
	return slot, start, waited
}

// Submit services one request and returns its timing. Requests must arrive
// in nondecreasing arrival order.
func (d *Device) Submit(req trace.Request) (storage.Result, error) {
	return d.SubmitAt(req.Arrival, req)
}

// SubmitAt services one request dispatched at dispatchAt (at least its
// arrival): Submit with an explicit dispatch time, the single-request fast
// path of the replay loops. It allocates nothing in steady state.
func (d *Device) SubmitAt(dispatchAt int64, req trace.Request) (storage.Result, error) {
	if err := d.CheckRequest(dispatchAt, req); err != nil {
		return storage.Result{}, err
	}
	return d.submitOne(dispatchAt, req)
}

// SubmitPacked services a batch dispatched together at dispatchAt. UFS has
// no packed commands — each member claims its own command slot and runs as
// an independent exchange — but accepting batches keeps the blockdev
// dispatch path backend-neutral.
func (d *Device) SubmitPacked(dispatchAt int64, reqs []trace.Request) ([]storage.Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("ufs: empty command batch")
	}
	for _, req := range reqs {
		if err := d.CheckRequest(dispatchAt, req); err != nil {
			return nil, err
		}
	}
	out := make([]storage.Result, 0, len(reqs))
	for _, req := range reqs {
		res, err := d.submitOne(dispatchAt, req)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// submitOne runs one command through slot admission and the flash array.
func (d *Device) submitOne(dispatchAt int64, req trace.Request) (storage.Result, error) {
	// The booster drains into the gap the device just sat idle, like the
	// idle-GC policy: the host paid nothing for it.
	d.DestageIdle(dispatchAt)

	slot, serviceStart, waited := d.admit(dispatchAt)
	opsStart := serviceStart + d.cfg.Timing.RequestOverheadNs
	lpns := d.LPNs(req)
	var finish int64
	var err error
	if req.Op == trace.Write {
		finish, err = d.serveWrite(opsStart, lpns)
	} else {
		finish, err = d.Read(opsStart, lpns)
	}
	if err != nil {
		return storage.Result{}, err
	}
	d.slots[slot] = finish
	return d.Complete(req, serviceStart, finish, waited), nil
}

// serveWrite programs the request's sectors. With the booster enabled, every
// chunk lands in SLC at fast-page latency on a striped plane (after any
// synchronous destage to make room); otherwise chunks go straight to the
// main pools via the FTL.
func (d *Device) serveWrite(opsStart int64, lpns []int64) (int64, error) {
	chunks, opsStart := d.SplitWrite(opsStart, lpns)
	if !d.Staging() {
		return d.WriteFTL(opsStart, chunks)
	}
	opsStart += d.DestageForSpace(int64(len(lpns)) * flash.SectorBytes)
	finish := opsStart
	d.BeginOps()
	for _, c := range chunks {
		plane := d.NextPlane()
		d.Stage(c)
		if end := d.Program(opsStart, plane, len(c.LPNs)*flash.SectorBytes, d.slcProgram(c.PageBytes), 0, c.PageBytes); end > finish {
			finish = end
		}
	}
	return finish, nil
}

// slcProgram prices a booster program: fast-page latency of the given page
// size, using the Timing's SLC factors.
func (d *Device) slcProgram(pageBytes int) int64 {
	p := flash.PoolSpec{PageBytes: pageBytes, BlocksPerPlane: 1, PagesPerBlock: 1, SLCMode: true}
	return d.cfg.Timing.ProgramPool(p, 0)
}

// Flush services a cache-flush barrier: it drains every command slot and
// in-flight flash operation, forces the booster's content to the main
// pools, and pays the flush cost.
func (d *Device) Flush(dispatchAt int64) (storage.Result, error) {
	start := dispatchAt
	waited := false
	for _, s := range d.slots {
		if s > start {
			start = s
			waited = true
		}
	}
	cost := d.cfg.FlushNs
	if cost <= 0 {
		cost = 100_000
	}
	res := d.Barrier(start, cost, waited)
	for i := range d.slots {
		d.slots[i] = max(d.slots[i], res.Finish)
	}
	return res, nil
}
