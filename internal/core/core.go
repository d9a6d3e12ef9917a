// Package core ties the substrates together into the paper's case study
// (§V): it defines the three eMMC device schemes of Table V — pure 4 KB
// pages (4PS), pure 8 KB pages (8PS), and the hybrid-page-size proposal
// (HPS) — and replays traces through them, producing the mean-response-time
// and space-utilization comparisons of Figs. 8 and 9.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"

	"emmcio/internal/emmc"
	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/reliability"
	"emmcio/internal/runner"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/ufs"
)

// Scheme selects one of the three Table V device organizations.
type Scheme int

const (
	// Scheme4PS is the conventional pure-4KB-page device.
	Scheme4PS Scheme = iota
	// Scheme8PS is the pure-8KB-page device.
	Scheme8PS
	// SchemeHPS is the paper's hybrid: per plane, 512 blocks of 4 KB pages
	// plus 256 blocks of 8 KB pages (Fig. 10).
	SchemeHPS
)

// Schemes lists all three, in the paper's presentation order.
var Schemes = []Scheme{Scheme4PS, Scheme8PS, SchemeHPS}

// String returns the paper's abbreviation.
func (s Scheme) String() string {
	switch s {
	case Scheme4PS:
		return "4PS"
	case Scheme8PS:
		return "8PS"
	case SchemeHPS:
		return "HPS"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Table V geometry: 2 channels × 1 chip × 2 dies × 2 planes.
func tableVGeometry() flash.Geometry {
	return flash.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 2}
}

// DefaultTiming is the latency model used across the case study.
//
// Flash latencies come from Table V (Micron MLC datasheets): 4 KB pages read
// in 160 µs and program in 1385 µs; 8 KB pages read in 244 µs and program in
// 1491 µs; erases take 3800 µs.
//
// The channel model makes the two-channel bus the bottleneck the paper's
// Implication 1 describes ("multiple sub-requests split from a large-size
// request cannot be processed in a complete parallel manner"): 40 MB/s per
// channel (25 ns/byte — an eMMC-4.5-class asynchronous NAND interface) plus
// a 50 µs per-page-operation command cost, so halving the page-operation
// count is what large pages buy. The controller spends 150 µs of firmware
// time per request, and consecutive operations a request issues to one plane
// pipeline at 0.65× (cache-mode program/read).
func DefaultTiming() flash.Timing {
	return flash.Timing{
		PerPage: map[int]flash.OpTiming{
			4096: {ReadNs: 160_000, ProgramNs: 1_385_000},
			8192: {ReadNs: 244_000, ProgramNs: 1_491_000},
		},
		EraseNs:           3_800_000,
		TransferNsPerByte: 12,
		CmdOverheadNs:     200_000,
		RequestOverheadNs: 150_000,
		PipelineFactor:    0.50,
	}
}

// Options tweak a device configuration for ablation studies.
type Options struct {
	// Backend selects the device implementation ("" or "emmc" = the paper's
	// eMMC model, "sd" = its external-card flavour, "ufs" = the command-
	// queued UFS model). Scheme, faults, scaling, and wear apply to every
	// backend; the eMMC-specific knobs below (PowerSaving, RAMBufferBytes,
	// CommandQueue, WriteBufferBytes, MapCacheBytes) are ignored by UFS.
	Backend storage.Backend
	// UFSQueues and UFSQueueDepth size the UFS command queue (defaults 1
	// queue × 32 slots). UFSBoosterBytes sizes the SLC write booster
	// (default 64 MB; negative disables it). All ignored by other backends.
	UFSQueues       int
	UFSQueueDepth   int
	UFSBoosterBytes int64
	// PowerSaving enables the low-power mode model (Characteristic 4).
	// The Fig. 8/9 replays run with it on; Fig. 3 microbenchmarks disable it.
	PowerSaving bool
	// GCPolicy selects foreground (SSD-style) or idle (Implication 2) GC.
	GCPolicy emmc.GCPolicy
	// RAMBufferBytes enables the device LRU cache (Implication 3 ablation).
	RAMBufferBytes int64
	// Timing overrides DefaultTiming when non-nil (e.g. SLC-mode studies
	// for Implication 5).
	Timing *flash.Timing
	// ScaleBlocks divides per-plane block counts to shrink the simulated
	// device (and its logical capacity) for GC-pressure studies. Zero or
	// one keeps the full Table V size.
	ScaleBlocks int
	// ScalePages divides pages-per-block, shrinking the erase unit so a
	// single garbage collection fits inside realistic inter-arrival gaps
	// (the Implication-2 regime). Zero or one keeps Table V's 1024.
	ScalePages int
	// Wear selects the FTL wear-leveling policy (Implication 4 studies).
	Wear ftl.WearPolicy
	// MapCacheBytes bounds the controller's DFTL-style mapping cache
	// (0 = unlimited mapping RAM, the idealized §V setup).
	MapCacheBytes int64
	// Reliability enables wear-dependent read retries (nil = fresh device).
	Reliability *reliability.Model
	// GCFreeBlocks overrides the per-plane-pool free-block GC threshold
	// (0 keeps the default of 2).
	GCFreeBlocks int
	// CommandQueue enables the eMMC 5.1-style command queue (Implication 1
	// forward-looking ablation); the paper's eMMC 4.51 has none.
	CommandQueue bool
	// WriteBufferBytes enables SSDsim's RAM write-buffer layer, which the
	// paper disables for the §V case study (0 = disabled, the §V setting).
	WriteBufferBytes int64
	// Faults enables deterministic fault injection (nil = perfect hardware,
	// the §V setting).
	Faults *faults.Config
}

// scalePool shrinks a pool for GC-pressure ablations.
func scalePool(p flash.PoolSpec, scaleBlocks, scalePages int) flash.PoolSpec {
	if scaleBlocks > 1 {
		p.BlocksPerPlane /= scaleBlocks
		if p.BlocksPerPlane < 4 {
			p.BlocksPerPlane = 4
		}
	}
	if scalePages > 1 {
		p.PagesPerBlock /= scalePages
		if p.PagesPerBlock < 16 {
			p.PagesPerBlock = 16
		}
	}
	return p
}

// DeviceConfig builds the emmc.Config for a scheme with the given options.
// The three schemes share geometry, timing, capacity (32 GB), and all
// policies, so the comparison isolates the page-size organization, exactly
// as Table V intends.
func DeviceConfig(s Scheme, opt Options) emmc.Config {
	timing := DefaultTiming()
	if opt.Timing != nil {
		timing = *opt.Timing
	}
	var pools []flash.PoolSpec
	switch s {
	case Scheme4PS:
		pools = []flash.PoolSpec{{PageBytes: 4096, BlocksPerPlane: 1024, PagesPerBlock: 1024}}
	case Scheme8PS:
		pools = []flash.PoolSpec{{PageBytes: 8192, BlocksPerPlane: 512, PagesPerBlock: 1024}}
	case SchemeHPS:
		pools = []flash.PoolSpec{
			{PageBytes: 8192, BlocksPerPlane: 256, PagesPerBlock: 1024},
			{PageBytes: 4096, BlocksPerPlane: 512, PagesPerBlock: 1024},
		}
	default:
		panic("core: unknown scheme")
	}
	for i := range pools {
		pools[i] = scalePool(pools[i], opt.ScaleBlocks, opt.ScalePages)
	}
	gcThreshold := 2
	if opt.GCFreeBlocks > 0 {
		gcThreshold = opt.GCFreeBlocks
	}
	cfg := emmc.Config{
		Geometry:     tableVGeometry(),
		Timing:       timing,
		Pools:        pools,
		GCFreeBlocks: gcThreshold,
		GCPolicy:     opt.GCPolicy,
		Wear:         opt.Wear,
		CommandQueue: opt.CommandQueue,

		RAMBufferBytes:   opt.RAMBufferBytes,
		WriteBufferBytes: opt.WriteBufferBytes,
		MapCacheBytes:    opt.MapCacheBytes,
		Reliability:      opt.Reliability,
		Faults:           opt.Faults,
	}
	if opt.PowerSaving {
		cfg.PowerSaving = true
		cfg.LightSleepAfter = 200 * 1_000_000  // 200 ms
		cfg.LightWake = 2 * 1_000_000          // 2 ms
		cfg.DeepSleepAfter = 3_000 * 1_000_000 // 3 s
		cfg.DeepWake = 8 * 1_000_000           // 8 ms
	}
	return cfg
}

// SDCardSlowdown is the paper's §IV-B observation that moving hot
// partitions to the external SD card roughly triples I/O latency.
const SDCardSlowdown = 3

// SDCardTiming slows every timing component of DefaultTiming by
// SDCardSlowdown: external cards sit on a slower bus with a slower
// controller and slower flash.
func SDCardTiming() flash.Timing {
	t := DefaultTiming()
	scaled := make(map[int]flash.OpTiming, len(t.PerPage))
	for size, op := range t.PerPage {
		scaled[size] = flash.OpTiming{
			ReadNs:    op.ReadNs * SDCardSlowdown,
			ProgramNs: op.ProgramNs * SDCardSlowdown,
		}
	}
	t.PerPage = scaled
	t.EraseNs *= SDCardSlowdown
	t.TransferNsPerByte *= SDCardSlowdown
	t.CmdOverheadNs *= SDCardSlowdown
	t.RequestOverheadNs *= SDCardSlowdown
	return t
}

// UFSTiming is the latency model of the UFS backend: the same Table V
// flash underneath, but a serial high-speed link (HS-Gear3-class,
// ~1.2 ns/byte) instead of the eMMC parallel bus, a 5 µs per-page-operation
// command cost, a 20 µs controller dispatch, and an interleaving controller
// that pipelines consecutive plane operations at 0.65×.
func UFSTiming() flash.Timing {
	t := DefaultTiming()
	t.TransferNsPerByte = 1.2
	t.CmdOverheadNs = 5_000
	t.RequestOverheadNs = 20_000
	t.PipelineFactor = 0.65
	t.ChannelInterleave = true
	return t
}

// ufsGeometry doubles the channel count of the eMMC part (4 × 1 × 2 × 2 =
// 16 planes): UFS-class packages stack more independent channels, the
// parallelism headroom Implication 1 asks for.
func ufsGeometry() flash.Geometry {
	return flash.Geometry{Channels: 4, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 2}
}

// UFSConfig builds the ufs.Config for a scheme: the scheme's page-size
// pools (halved per plane — twice the planes, same 32 GB budget) on the UFS
// geometry and timing, with the command queue and booster from Options.
func UFSConfig(s Scheme, opt Options) ufs.Config {
	base := DeviceConfig(s, opt)
	timing := UFSTiming()
	if opt.Timing != nil {
		timing = *opt.Timing
	}
	pools := make([]flash.PoolSpec, len(base.Pools))
	for i, p := range base.Pools {
		p.BlocksPerPlane /= 2
		if p.BlocksPerPlane < 4 {
			p.BlocksPerPlane = 4
		}
		pools[i] = p
	}
	booster := opt.UFSBoosterBytes
	if booster == 0 {
		booster = 64 << 20
	} else if booster < 0 {
		booster = 0
	}
	return ufs.Config{
		Geometry:          ufsGeometry(),
		Timing:            timing,
		Pools:             pools,
		GCFreeBlocks:      base.GCFreeBlocks,
		Wear:              opt.Wear,
		Queues:            opt.UFSQueues,
		QueueDepth:        opt.UFSQueueDepth,
		WriteBoosterBytes: booster,
		Faults:            opt.Faults,
	}
}

// NewDevice builds a fresh device for the scheme on the backend selected by
// opt.Backend (the zero value is the paper's eMMC model, so existing
// callers are unchanged — and bit-identical).
func NewDevice(s Scheme, opt Options) (storage.Device, error) {
	switch opt.Backend {
	case "", storage.BackendEMMC:
		return emmc.New(DeviceConfig(s, opt))
	case storage.BackendSD:
		cfg := DeviceConfig(s, opt)
		cfg.SDCard = true
		if opt.Timing == nil {
			cfg.Timing = SDCardTiming()
		}
		return emmc.New(cfg)
	case storage.BackendUFS:
		return ufs.New(UFSConfig(s, opt))
	}
	return nil, unknownBackend(opt.Backend)
}

// unknownBackend is the error for a backend no constructor serves.
func unknownBackend(b storage.Backend) error {
	return fmt.Errorf("core: unknown device backend %q (valid: %s)", b, strings.Join(storage.Backends(), ", "))
}

// RestoreDevice rebuilds a device from a bare Snapshot stream (payload
// version 2). The layout is backend-specific, so the caller says which
// backend wrote it ("" = eMMC; the sd flavour shares the eMMC layout).
// Prefer RestoreSealed, which verifies a digest, reads the backend from
// the envelope and also reads version-1 payloads.
func RestoreDevice(b storage.Backend, r io.Reader) (storage.Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	return restorePayload(b, data)
}

// restorePayload rebuilds a device of backend b from a version-2 payload.
func restorePayload(b storage.Backend, payload []byte) (storage.Device, error) {
	switch b {
	case "", storage.BackendEMMC, storage.BackendSD:
		return emmc.RestoreBytes(payload)
	case storage.BackendUFS:
		return ufs.RestoreBytes(payload)
	}
	return nil, unknownBackend(b)
}

// RestoreSealed rebuilds a device from a sealed snapshot (storage.Seal):
// the envelope's digest is verified and its backend header drives the
// dispatch, so a corrupt or truncated stream fails with a one-line
// diagnostic naming id and the byte offset. A version-1 (gob) payload is
// transcoded to version 2 first. id labels diagnostics only ("" reads as
// "snapshot").
func RestoreSealed(id string, r io.Reader) (storage.Device, storage.SealInfo, error) {
	info, payload, err := storage.ReadSeal(r, id)
	if err != nil {
		return nil, storage.SealInfo{}, err
	}
	if info.Version == 1 {
		if payload, err = transcodeV1(info.Backend, payload); err != nil {
			return nil, info, err
		}
	}
	dev, err := restorePayload(info.Backend, payload)
	if err != nil {
		return nil, info, err
	}
	return dev, info, nil
}

// Metrics summarizes one replay.
type Metrics struct {
	Trace  string
	Scheme Scheme

	Served           int
	MeanResponseNs   float64 // the paper's MRT
	MeanServiceNs    float64
	NoWaitRatio      float64
	SpaceUtilization float64

	// Secondary metrics for ablations and EXPERIMENTS.md.
	GCStallNs          int64
	IdleGCNs           int64
	WriteAmplification float64
	BufferHitRate      float64
	LightWakes         int64
	DeepWakes          int64

	// Fault-injection outcomes (all zero with faults off).
	ProgramFaults int64
	EraseFaults   int64
	ReadFaults    int64
	RetiredBlocks int64
	RecoveryNs    int64
}

// CaseStudyOptions are the settings of the §V experiments, matching the
// paper's SSDsim setup: foreground GC, the RAM buffer disabled, and no
// power-mode model (SSDsim does not simulate sleep states; power effects
// belong to the trace-collection side reproduced via internal/biotracer).
func CaseStudyOptions() Options {
	return Options{PowerSaving: false, GCPolicy: emmc.GCForeground}
}

// ThroughputPoint is one point of the Fig. 3 sweep.
type ThroughputPoint struct {
	SizeBytes int
	ReadMBs   float64
	WriteMBs  float64
}

// Fig3Sizes are the request sizes swept in Fig. 3: 4 KB to 16 MB doubling;
// the read series stops at 256 KB, the largest read in any trace.
func Fig3Sizes() []int {
	var out []int
	for s := 4 * 1024; s <= 16*1024*1024; s *= 2 {
		out = append(out, s)
	}
	return out
}

// MaxReadSize is the largest read request observed in the traces (256 KB).
const MaxReadSize = 256 * 1024

// ThroughputSweep reproduces Fig. 3 on a scheme: for each request size it
// issues back-to-back requests on an otherwise idle device (power saving
// off, as a tight microbenchmark never lets the device sleep) and reports
// payload moved per unit of service time. The per-size points are
// independent (each builds its own devices), so they run as one plan on the
// given runner; a nil runner uses a default-width pool. Once ctx is done,
// points that have not started fail fast with its error.
func ThroughputSweep(ctx context.Context, r *runner.Runner, s Scheme, opt Options, sizes []int, reqsPerPoint int) ([]ThroughputPoint, error) {
	return runner.MapContext(ctx, r, "throughput", sizes, func(_ context.Context, _ int, size int) (ThroughputPoint, error) {
		return throughputPoint(s, opt, size, reqsPerPoint)
	})
}

// throughputPoint measures one Fig. 3 sweep point on fresh devices.
func throughputPoint(s Scheme, opt Options, size, reqsPerPoint int) (ThroughputPoint, error) {
	p := ThroughputPoint{SizeBytes: size}
	for _, op := range []trace.Op{trace.Read, trace.Write} {
		if op == trace.Read && size > MaxReadSize {
			continue
		}
		dev, err := NewDevice(s, opt)
		if err != nil {
			return p, err
		}
		if op == trace.Read {
			// Populate the address range so reads hit mapped pages.
			prep := trace.Request{LBA: 0, Size: uint32(size), Op: trace.Write}
			if _, err := dev.Submit(prep); err != nil {
				return p, err
			}
		}
		var busy int64
		arrival := int64(1 << 40) // after the prep write, far in the future
		var lba uint64
		if op == trace.Write {
			lba = 1 << 20 // separate region from the prep write
		}
		for i := 0; i < reqsPerPoint; i++ {
			req := trace.Request{Arrival: arrival, LBA: lba, Size: uint32(size), Op: op}
			res, err := dev.Submit(req)
			if err != nil {
				return p, err
			}
			busy += res.Finish - res.ServiceStart
			arrival = res.Finish
			if op == trace.Write {
				lba += uint64(size) / trace.SectorSize
			}
		}
		mbs := float64(size) * float64(reqsPerPoint) / (float64(busy) / 1e9) / 1e6
		if op == trace.Read {
			p.ReadMBs = mbs
		} else {
			p.WriteMBs = mbs
		}
	}
	return p, nil
}
