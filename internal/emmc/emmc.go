// Package emmc models the eMMC device: a FIFO request interface in front of
// a multi-channel, multi-plane flash array managed by the FTL — the NAND
// back end (internal/nand) it shares with the UFS model.
//
// The service model follows the paper's measurement semantics (§II-B):
// a request's service starts when the device is free (requests that find the
// device busy wait — the complement of Table IV's NoWait ratio) and ends when
// its last flash operation completes. Within one request, page operations
// stripe round-robin across planes; transfers serialize per channel and
// flash operations serialize per plane, as in SSDsim.
//
// Two behaviours the paper highlights are modeled explicitly:
//
//   - Low-power mode (Characteristic 4): after a configurable idle period the
//     device drops into light then deep sleep, and the next request pays a
//     wake-up penalty as part of its service time.
//   - Garbage-collection policy (Implication 2): the SSD-style policy runs GC
//     in the foreground when free blocks run low; the idle policy runs it
//     during request inter-arrival gaps, charging the request only for the
//     part that did not fit in the gap.
package emmc

import (
	"fmt"
	"io"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/nand"
	"emmcio/internal/reliability"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/wire"
)

// GCPolicy selects when garbage collection runs.
type GCPolicy int

const (
	// GCForeground runs GC synchronously when a write finds the pool at the
	// free-block threshold (the SSD-style policy Implication 2 critiques).
	GCForeground GCPolicy = iota
	// GCIdle runs GC during request inter-arrival gaps (Implication 2's
	// proposal); only overflow beyond the gap delays the request.
	GCIdle
)

// Config describes a device instance.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	// Pools lists the per-plane page-size pools, largest page first.
	Pools []flash.PoolSpec
	// GCFreeBlocks is the per-plane-pool free-block threshold.
	GCFreeBlocks int
	GCPolicy     GCPolicy
	// Wear selects the FTL wear-leveling policy (default round-robin,
	// the paper's Implication-4 recommendation).
	Wear ftl.WearPolicy

	// Power management (Characteristic 4). Zero thresholds disable a level.
	PowerSaving     bool
	LightSleepAfter int64 // idle ns before light sleep
	LightWake       int64 // wake penalty from light sleep
	DeepSleepAfter  int64 // idle ns before deep sleep
	DeepWake        int64 // wake penalty from deep sleep

	// RAMBufferBytes enables the device-internal LRU sector cache used for
	// the Implication-3 ablation. Zero (the default, and the §V setup)
	// disables it.
	RAMBufferBytes int64

	// MapCacheBytes bounds the controller RAM holding the DFTL-style cached
	// mapping table. Zero (the default) models unlimited mapping RAM — the
	// idealized FTL of the §V case study. A realistic eMMC value (tens to a
	// few hundred KB) makes mapping misses cost translation-page I/O.
	MapCacheBytes int64

	// Reliability enables the wear-dependent read-retry model: reads slow
	// down as the pool's average P/E count climbs. Nil disables it (fresh
	// devices, the §V setup).
	Reliability *reliability.Model

	// ReadAheadPages prefetches the next N sequential sectors into the RAM
	// buffer after a read, a device-side optimization whose payoff is
	// bounded by the traces' weak spatial locality (Implication 3's other
	// face). Requires RAMBufferBytes > 0; zero disables.
	ReadAheadPages int

	// CommandQueue models an eMMC 5.1-style command queue: requests no
	// longer wait for the whole device to go idle, only for the channels
	// and planes they actually use. eMMC 4.51 (the paper's device) has no
	// CQ — this is the forward-looking ablation for Implication 1.
	CommandQueue bool

	// FlushNs is the cost of a cache-flush barrier (CMD6/SWITCH with the
	// FLUSH_CACHE bit — what fsync turns into below the file system).
	// Zero selects the 500 µs default.
	FlushNs int64

	// WriteBufferBytes enables SSDsim's RAM write-buffer layer, which the
	// paper's §V-B explicitly disables for the case study: writes are
	// acknowledged from RAM and destaged to flash during idle gaps (or
	// synchronously when the buffer fills / a flush barrier arrives).
	WriteBufferBytes int64

	// Faults enables deterministic fault injection (program/erase failures
	// and uncorrectable reads, wear-dependent). Nil or rate-zero models
	// perfect hardware at zero simulated-time overhead.
	Faults *faults.Config

	// SDCard marks the device as the mmc/sdcard flavour: identical
	// mechanics, but the device advertises no packed-command support, so
	// the blockdev driver issues one command per request (the paper's
	// Implication-1 external-card comparison). Timing carries the 3x
	// slowdown; this bit only changes the advertised capabilities.
	SDCard bool
}

// Validate reports unusable configurations.
func (c Config) Validate() error { return c.params().Validate() }

// CapacityBytes returns the configured device's physical flash capacity.
func (c Config) CapacityBytes() int64 { return c.params().CapacityBytes() }

// Result reports the replayed timing of one request. It is the shared
// storage.Result: the seam's type, so every backend returns the same shape.
type Result = storage.Result

// Metrics aggregates a device's activity over a replay (storage.Metrics —
// the alias keeps every JSON field identical to the pre-seam layout).
type Metrics = storage.Metrics

// Utilization reports resource busy fractions (see nand.Utilization).
type Utilization = nand.Utilization

// Device is one simulated eMMC instance: the FIFO host interface, packed
// commands, the power model and the RAM write buffer's acknowledgement, in
// front of the shared NAND back end.
type Device struct {
	nand.Backend
	cfg    Config
	freeAt int64

	// Power-model telemetry; the back end owns the rest.
	lightWakes, deepWakes       *telemetry.Counter
	tracer                      *telemetry.Tracer
	lightWakeSpan, deepWakeSpan telemetry.SpanKey
}

// params maps the configuration onto the back end's.
func (c Config) params() nand.Params {
	return nand.Params{
		Name:           "emmc",
		Geometry:       c.Geometry,
		Timing:         c.Timing,
		Pools:          c.Pools,
		GCFreeBlocks:   c.GCFreeBlocks,
		Wear:           c.Wear,
		Faults:         c.Faults,
		Interleave:     c.Timing.ChannelInterleave,
		RAMBufferBytes: c.RAMBufferBytes,
		MapCacheBytes:  c.MapCacheBytes,
		ReadAheadPages: c.ReadAheadPages,
		Reliability:    c.Reliability,
		StageBytes:     c.WriteBufferBytes,
		StageGauge:     "write_buffer_bytes",
		DestageCounter: "destages_total",
	}
}

// New builds a fresh device.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := nand.New(cfg.params())
	if err != nil {
		return nil, err
	}
	return &Device{Backend: b, cfg: cfg}, nil
}

// SetTelemetry attaches metrics and span tracing to the device (nil values
// detach): the back end's emmc_ series and spans (see nand.SetTelemetry)
// plus emmc_wakes_total{level} and wake markers.
func (d *Device) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.Backend.SetTelemetry(reg, tr)
	d.tracer = tr
	d.lightWakeSpan = tr.Key("emmc", "device", "light-wake")
	d.deepWakeSpan = tr.Key("emmc", "device", "deep-wake")
	d.lightWakes = reg.Counter("emmc_wakes_total", telemetry.L("level", "light"))
	d.deepWakes = reg.Counter("emmc_wakes_total", telemetry.L("level", "deep"))
}

// Caps advertises the device's capabilities to the driver layer: packed
// commands unless configured as the sdcard flavour, and a queue depth of 1
// (eMMC 4.51 serializes commands) unless the 5.1-style command queue is on.
func (d *Device) Caps() storage.Caps {
	c := storage.Caps{Backend: storage.BackendEMMC, PackedCommands: true, QueueDepth: 1}
	if d.cfg.SDCard {
		c.Backend = storage.BackendSD
		c.PackedCommands = false
	}
	if d.cfg.CommandQueue {
		c.QueueDepth = 32 // eMMC 5.1 CQE exposes 32 task slots
	}
	return c
}

// Config returns the device configuration.
func (d *Device) Config() Config {
	c := d.cfg
	c.Faults = d.FaultConfig()
	return c
}

// Submit services one request and returns its timing. Requests must arrive
// in nondecreasing arrival order.
func (d *Device) Submit(req trace.Request) (Result, error) {
	return d.SubmitAt(req.Arrival, req)
}

// SubmitAt services one request dispatched at dispatchAt (at least its
// arrival): Submit with an explicit dispatch time, the single-request fast
// path of the replay loops. It allocates nothing in steady state.
func (d *Device) SubmitAt(dispatchAt int64, req trace.Request) (Result, error) {
	if err := d.CheckRequest(dispatchAt, req); err != nil {
		return Result{}, err
	}
	serviceStart, opsStart, waited, err := d.beginCommand(dispatchAt)
	if err != nil {
		return Result{}, err
	}
	res, err := d.serveOne(req, serviceStart, opsStart, waited)
	if err != nil {
		return Result{}, err
	}
	d.finishCommand(res.Finish)
	return res, nil
}

// SubmitPacked services several requests as one packed eMMC command
// (Fig. 2's packing function): the command pays the controller's
// per-request overhead once, its members' flash operations share the
// command's schedule, and the device is busy until the last member
// finishes. dispatchAt is when the driver issued the command (at least the
// latest member arrival).
func (d *Device) SubmitPacked(dispatchAt int64, reqs []trace.Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("emmc: empty packed command")
	}
	for _, req := range reqs {
		if err := d.CheckRequest(dispatchAt, req); err != nil {
			return nil, err
		}
	}
	serviceStart, opsStart, waited, err := d.beginCommand(dispatchAt)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(reqs))
	var cmdFinish int64
	for _, req := range reqs {
		res, err := d.serveOne(req, serviceStart, opsStart, waited)
		if err != nil {
			return nil, err
		}
		if res.Finish > cmdFinish {
			cmdFinish = res.Finish
		}
		out = append(out, res)
	}
	d.finishCommand(cmdFinish)
	return out, nil
}

// beginCommand runs the per-command preamble shared by every submit path:
// the FIFO wait, the power-mode wake penalty, the controller overhead, and
// the idle-gap GC/destage work. It returns when service starts and when
// flash operations may begin.
func (d *Device) beginCommand(dispatchAt int64) (serviceStart, opsStart int64, waited bool, err error) {
	waited = d.freeAt > dispatchAt
	serviceStart = dispatchAt
	if waited && !d.cfg.CommandQueue {
		serviceStart = d.freeAt
	}

	// Power-mode wake penalty: the device has been idle since its last
	// activity.
	opsStart = serviceStart
	if d.cfg.PowerSaving && d.Counters.Served > 0 {
		idle := serviceStart - d.LastActivity()
		switch {
		case d.cfg.DeepSleepAfter > 0 && idle >= d.cfg.DeepSleepAfter:
			opsStart += d.cfg.DeepWake
			d.Counters.DeepWakes++
			d.Counters.WakeNs += d.cfg.DeepWake
			d.deepWakes.Inc()
			d.tracer.Instant(d.deepWakeSpan, serviceStart)
		case d.cfg.LightSleepAfter > 0 && idle >= d.cfg.LightSleepAfter:
			opsStart += d.cfg.LightWake
			d.Counters.LightWakes++
			d.Counters.WakeNs += d.cfg.LightWake
			d.lightWakes.Inc()
			d.tracer.Instant(d.lightWakeSpan, serviceStart)
		}
	}
	opsStart += d.cfg.Timing.RequestOverheadNs

	// Idle-policy GC: clean pools that hit the threshold, absorbing the cost
	// into the gap the device just sat idle.
	if d.cfg.GCPolicy == GCIdle {
		over, gerr := d.RunIdleGC(dispatchAt)
		if gerr != nil {
			return 0, 0, false, gerr
		}
		opsStart += over
	}
	// Idle destage: the write buffer drains into the same gaps.
	d.DestageIdle(dispatchAt)
	return serviceStart, opsStart, waited, nil
}

// serveOne services one member request of a command whose preamble already
// ran and returns its Result.
func (d *Device) serveOne(req trace.Request, serviceStart, opsStart int64, waited bool) (Result, error) {
	lpns := d.LPNs(req)
	var finish int64
	var err error
	if req.Op == trace.Write {
		finish, err = d.serveWrite(opsStart, lpns)
	} else {
		finish, err = d.Read(opsStart, lpns)
	}
	if err != nil {
		return Result{}, err
	}
	return d.Complete(req, serviceStart, finish, waited), nil
}

// finishCommand advances the FIFO cursor after a command's last member
// finishes.
func (d *Device) finishCommand(cmdFinish int64) {
	if !d.cfg.CommandQueue || cmdFinish > d.freeAt {
		d.freeAt = cmdFinish
	}
}

// serveWrite programs all chunks, striping across planes. With the write
// buffer enabled, chunks are acknowledged from RAM (transfer cost only) and
// destaged later; a full buffer destages synchronously first. The RAM
// acknowledgement uses the channel the stripe cursor points at without
// advancing it.
func (d *Device) serveWrite(opsStart int64, lpns []int64) (int64, error) {
	chunks, opsStart := d.SplitWrite(opsStart, lpns)
	if !d.Staging() {
		return d.WriteFTL(opsStart, chunks)
	}
	opsStart += d.DestageForSpace(int64(len(lpns)) * flash.SectorBytes)
	finish := opsStart
	for _, c := range chunks {
		d.Stage(c)
		if end := d.HostTransfer(opsStart, len(c.LPNs)*flash.SectorBytes, nand.WriteAckXfer, c.PageBytes); end > finish {
			finish = end
		}
	}
	return finish, nil
}

// Flush services a cache-flush barrier: it drains every in-flight
// operation (all channels and planes), forces the write buffer to flash,
// and then pays the flush cost. The journaling stack issues one per
// fsync/commit.
func (d *Device) Flush(dispatchAt int64) (Result, error) {
	waited := d.freeAt > dispatchAt
	cost := d.cfg.FlushNs
	if cost <= 0 {
		cost = 500_000
	}
	res := d.Barrier(max(dispatchAt, d.freeAt), cost, waited)
	d.freeAt = res.Finish
	return res, nil
}

// Snapshot archives the device to w — its configuration, free-at cursor
// and back end (FTL, timing cursors, metrics, fault stream, write-buffer
// content) in the version-2 layout of internal/storage/seal.go — so an
// aged device can be resumed later without replaying its history. The RAM
// read buffer and mapping cache restart cold.
func (d *Device) Snapshot(w io.Writer) error {
	buf, err := wire.AppendJSON(nil, d.Config())
	if err != nil {
		return fmt.Errorf("emmc: encoding snapshot config: %w", err)
	}
	buf = d.AppendState(wire.AppendI64(buf, d.freeAt))
	_, err = w.Write(buf)
	return err
}

// RestoreSnapshot rebuilds a device from a Snapshot stream: it reads the
// stream once and restores from the bytes with RestoreBytes.
func RestoreSnapshot(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("emmc: reading snapshot: %w", err)
	}
	return RestoreBytes(data)
}

// RestoreBytes rebuilds a device from the bytes Snapshot wrote, checking
// them against their own configuration as it reads. The device keeps no
// reference to data.
func RestoreBytes(data []byte) (*Device, error) {
	rd := wire.NewReader(data)
	var cfg Config
	rd.JSON("config", &cfg)
	freeAt := rd.I64()
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("emmc: snapshot %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("emmc: snapshot config: %w", err)
	}
	b, err := nand.Restore(cfg.params(), rd)
	if err != nil {
		return nil, err
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("emmc: snapshot %w", err)
	}
	return &Device{Backend: b, cfg: cfg, freeAt: freeAt}, nil
}
