// Package storage defines the backend-neutral device seam between the
// kernel-side layers (blockdev, core's replay loops, the experiment sweeps,
// the CLIs and the emmcd server) and a concrete storage model. Everything
// above this interface speaks sim-time requests and Results; everything
// below it owns flash scheduling, FTL policy, and power/fault behaviour.
//
// Three backends implement Device today: the eMMC model of internal/emmc
// (the paper's device, packed commands and all), its mmc/sdcard flavour
// (same mechanics, 3x slower, no packed-command support), and the
// UFS/NVMe-flavoured command-queued model of internal/ufs. The paper's
// implications chapter asks what smartphone I/O patterns mean for *future*
// storage interfaces; this seam is what lets one reconstructed workload
// replay across device generations instead of being hard-wired to eMMC.
package storage

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/wire"
)

// Backend names a device implementation selectable via -device or the
// "device" JSON field.
type Backend string

// The built-in backends.
const (
	// BackendEMMC is the paper's eMMC 4.51-class device (internal/emmc).
	BackendEMMC Backend = "emmc"
	// BackendSD is the mmc/sdcard flavour of the eMMC model: identical
	// mechanics, the paper's "roughly triple" latency penalty, and no
	// packed-command support (Implication 1's external-card comparison).
	BackendSD Backend = "sd"
	// BackendUFS is the UFS/NVMe-flavoured command-queued model
	// (internal/ufs): multi-queue submission, out-of-order completion,
	// higher channel parallelism, and an SLC write-booster fast path.
	BackendUFS Backend = "ufs"
)

// Backends lists the valid backend names, sorted, for diagnostics.
func Backends() []string {
	out := []string{string(BackendEMMC), string(BackendSD), string(BackendUFS)}
	sort.Strings(out)
	return out
}

// ParseBackend resolves a user-supplied device name. The empty string is
// the eMMC default, so zero-valued specs keep their pre-backend behaviour.
// The error is a single line listing the valid names — both the CLI flag
// path and the server's JSON path surface it verbatim.
func ParseBackend(s string) (Backend, error) {
	switch Backend(strings.ToLower(s)) {
	case "", BackendEMMC:
		return BackendEMMC, nil
	case BackendSD:
		return BackendSD, nil
	case BackendUFS:
		return BackendUFS, nil
	}
	return "", fmt.Errorf("unknown device %q (valid: %s)", s, strings.Join(Backends(), ", "))
}

// Caps describes what a device can do, so upper layers query capabilities
// instead of assuming eMMC. The blockdev driver packs requests only for
// devices that advertise PackedCommands and accounts mmc bus exchanges only
// for them; everything else gets one command per request.
type Caps struct {
	// Backend identifies the implementation.
	Backend Backend
	// PackedCommands reports eMMC packed-command support (Fig. 2's packing
	// function). False for sdcard and UFS.
	PackedCommands bool
	// QueueDepth is how many commands the device accepts concurrently:
	// 1 for a strictly serial FIFO device, >1 for command-queued ones.
	QueueDepth int
}

// Result reports the replayed timing of one request.
type Result struct {
	ServiceStart int64
	Finish       int64
	Waited       bool
}

// Metrics aggregates a device's activity over a replay. The field set is
// the union of what the backends account; a backend leaves counters it
// does not model at zero (e.g. wake accounting on a device without the
// power model, queue-full waits on a FIFO device).
type Metrics struct {
	Served        int64
	NoWait        int64
	SumServiceNs  int64
	SumResponseNs int64
	SumWaitNs     int64

	// GC accounting.
	ForegroundGC ftl.GCWork
	IdleGC       ftl.GCWork
	GCStallNs    int64 // foreground/overflow GC time charged to requests
	IdleGCNs     int64 // GC time absorbed by inter-arrival gaps

	// Wake-up accounting (Characteristic 4).
	LightWakes int64
	DeepWakes  int64
	WakeNs     int64

	// Mapping-table cache accounting (DFTL-style map paging).
	MapReads  int64 // translation-page fetches on cache misses
	MapWrites int64 // dirty translation-page write-backs
	MapNs     int64 // controller time spent on translation I/O

	// Flush barriers served (fsync-driven cache flushes).
	Flushes int64
	FlushNs int64

	// Fault recovery accounting. ReadFaults counts uncorrectable reads; each
	// one pays the retry ladder plus a read-scrub block retirement, totalled
	// in RecoveryNs. Program/erase fault totals live in the FTL stats.
	ReadFaults int64
	RecoveryNs int64

	// Write-buffer accounting (SSDsim's RAM buffer layer on eMMC; the SLC
	// write booster on UFS).
	BufferedWrites int64 // writes acknowledged from RAM / absorbed by the booster
	DestageIdleNs  int64 // destage time hidden in idle gaps
	DestageStallNs int64 // destage time charged to waiting requests
}

// AppendMetrics appends m to a device snapshot as little-endian int64s,
// in field order.
func AppendMetrics(buf []byte, m Metrics) []byte {
	buf = wire.AppendI64(buf, m.Served, m.NoWait, m.SumServiceNs, m.SumResponseNs, m.SumWaitNs)
	buf = ftl.AppendGCWork(buf, m.ForegroundGC)
	buf = ftl.AppendGCWork(buf, m.IdleGC)
	return wire.AppendI64(buf, m.GCStallNs, m.IdleGCNs, m.LightWakes, m.DeepWakes, m.WakeNs,
		m.MapReads, m.MapWrites, m.MapNs, m.Flushes, m.FlushNs, m.ReadFaults, m.RecoveryNs,
		m.BufferedWrites, m.DestageIdleNs, m.DestageStallNs)
}

// ReadMetrics reads metrics AppendMetrics wrote.
func ReadMetrics(r *wire.Reader) Metrics {
	m := Metrics{Served: r.I64(), NoWait: r.I64(), SumServiceNs: r.I64(), SumResponseNs: r.I64(), SumWaitNs: r.I64()}
	m.ForegroundGC, m.IdleGC = ftl.ReadGCWork(r), ftl.ReadGCWork(r)
	for _, v := range []*int64{&m.GCStallNs, &m.IdleGCNs, &m.LightWakes, &m.DeepWakes, &m.WakeNs,
		&m.MapReads, &m.MapWrites, &m.MapNs, &m.Flushes, &m.FlushNs, &m.ReadFaults, &m.RecoveryNs,
		&m.BufferedWrites, &m.DestageIdleNs, &m.DestageStallNs} {
		*v = r.I64()
	}
	return m
}

// NoWaitRatio returns the fraction of requests served immediately.
func (m Metrics) NoWaitRatio() float64 {
	if m.Served == 0 {
		return 0
	}
	return float64(m.NoWait) / float64(m.Served)
}

// MeanServiceNs returns the mean service time.
func (m Metrics) MeanServiceNs() float64 {
	if m.Served == 0 {
		return 0
	}
	return float64(m.SumServiceNs) / float64(m.Served)
}

// MeanResponseNs returns the mean response time (the paper's MRT).
func (m Metrics) MeanResponseNs() float64 {
	if m.Served == 0 {
		return 0
	}
	return float64(m.SumResponseNs) / float64(m.Served)
}

// Device is one simulated storage device. All times are simulated
// nanoseconds; nothing here blocks on wall-clock time. Implementations are
// single-goroutine, like the replay loops that drive them.
type Device interface {
	// Submit services one request and returns its timing. Requests must
	// arrive in nondecreasing arrival order.
	Submit(req trace.Request) (Result, error)
	// SubmitAt services one request dispatched at dispatchAt (at least its
	// arrival): Submit with an explicit dispatch time. It is the
	// single-request fast path the replay loops use — semantically identical
	// to SubmitPacked(dispatchAt, one-element batch), without forcing either
	// side to allocate the batch or the result slice.
	SubmitAt(dispatchAt int64, req trace.Request) (Result, error)
	// SubmitPacked services several requests dispatched together at
	// dispatchAt (at least the latest member arrival). Devices without
	// packed-command support still accept multi-request batches — they
	// issue the members back to back as independent commands — so the
	// blockdev dispatch path is backend-neutral.
	SubmitPacked(dispatchAt int64, reqs []trace.Request) ([]Result, error)
	// Flush services a cache-flush barrier (what fsync turns into below
	// the file system): it drains in-flight work and pays the flush cost.
	Flush(dispatchAt int64) (Result, error)

	// Caps reports the device's capabilities for the driver layer.
	Caps() Caps
	// Geometry returns the flash array's shape.
	Geometry() flash.Geometry
	// CapacityBytes returns the device's physical flash capacity.
	CapacityBytes() int64

	// Metrics returns a copy of the accumulated replay metrics.
	Metrics() Metrics
	// FTLStats exposes the translation layer's accounting.
	FTLStats() ftl.Stats
	// Wear exposes the erase distribution of pool index pool.
	Wear(pool int) ftl.WearSummary
	// MapCacheStats exposes the mapping-cache counters (zero when the
	// backend has no bounded mapping cache).
	MapCacheStats() ftl.MapCacheStats
	// BufferHitRate returns the device read-cache hit rate (0 when none).
	BufferHitRate() float64
	// PrefetchStats reports read-ahead activity (zeros when unsupported).
	PrefetchStats() (prefetched, hits int64)
	// FaultCounts exposes the fault injector's per-kind totals (all zero
	// when injection is off).
	FaultCounts() faults.Counts
	// FaultDraws reports the fault injector's decision-stream position —
	// how many random draws it has consumed (0 with injection off). Device
	// snapshots archive it, and a restored device resumes from it, so the
	// draw count is the fork-determinism witness callers assert on.
	FaultDraws() int64
	// SetFaultConfig replaces the device's fault injector with a fresh one
	// built from fc (nil turns injection off). The new injector starts at
	// draw 0, exactly as if fc had been part of the construction config —
	// which is what lets one aged snapshot fork into many fault regimes.
	SetFaultConfig(fc *faults.Config) error
	// AddArtificialWear pre-ages a pool (aging studies).
	AddArtificialWear(pool int, erases int64)
	// Pools describes the device's flash pools (page size, block and page
	// counts); Wear takes an index into this slice.
	Pools() []flash.PoolSpec
	// LastActivity returns the completion time of the most recent request.
	LastActivity() int64

	// SetTelemetry attaches metrics and span tracing (nil values detach).
	SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer)

	// Snapshot archives the device's configuration and full dynamic state
	// in the little-endian layout of sealed snapshot version 2 (see
	// seal.go), so an aged device can be resumed later without replaying
	// its history. Restore is backend-specific (emmc.RestoreSnapshot,
	// ufs.RestoreSnapshot); core.RestoreDevice dispatches on a Backend.
	Snapshot(w io.Writer) error
}
