// Package experiments regenerates every table and figure of the paper's
// evaluation: Tables I–V, Figs. 3–9, the §II-C tracer-overhead analysis,
// the six Characteristics, and ablation studies for the five Implications.
// Each experiment returns structured results plus a rendered report.Table,
// so the same code backs the cmd/experiments binary, the integration tests,
// and the benchmark harness.
package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/lru"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// Env carries the shared inputs of all experiments. It is safe for
// concurrent use: the sweep runner's workers call Trace from many
// goroutines.
type Env struct {
	// Seed drives trace generation; DefaultSeed reproduces the repository's
	// published numbers exactly.
	Seed uint64
	// Registry holds the 25 application profiles.
	Registry *workload.Registry
	// Workers bounds the sweep runner's worker pool (the CLIs' -j flag).
	// Zero means GOMAXPROCS. Results are identical at any width.
	Workers int

	// Telemetry and Tracer, when non-nil, are attached to every replay the
	// sweep runner executes (metrics registry and span ring buffer). Both
	// default to nil: experiments run unobserved.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer

	// Faults, when non-nil, is applied to every replay job that does not set
	// its own fault config (the CLIs' -faults/-fault-seed flags). Jobs with a
	// custom Device builder construct their own config and are not touched.
	Faults *faults.Config

	// Backend, when non-empty, selects the storage backend for every replay
	// job that does not pick its own (the CLIs' -device flag). Jobs with a
	// custom Device builder are not touched. The UFS* fields carry the UFS
	// sizing knobs along with it (zero = backend defaults).
	Backend         storage.Backend
	UFSQueues       int
	UFSQueueDepth   int
	UFSBoosterBytes int64

	// Fork, when non-nil, builds each replay job's device by forking an
	// archived aged snapshot instead of constructing fresh flash — the
	// /v1/devices fast path. It must return an independent device on every
	// call. It applies to plain FIFO replays without a custom Device
	// builder; scheduled and collection jobs keep fresh devices. The job's
	// request stream is shifted past the fork's archived history, exactly
	// like emmcsim's -load resume, and a fault config (job's or env's) is
	// re-armed on the fork via SetFaultConfig.
	Fork func() (storage.Device, error)

	// Ctx, when non-nil, bounds every sweep launched through this env:
	// replay loops check it between events and the runner checks it between
	// jobs, so cancellation and deadlines propagate into experiments whose
	// signatures predate contexts (the emmcd server attaches its per-job
	// context here). Nil means context.Background(). An explicit
	// ReplaysContext call overrides it.
	Ctx context.Context

	// The trace cache sits behind a pointer, so an Env copy shares every
	// setting and only a fresh cache has to be attached (withSeed).
	*traceCache
}

// traceCache is the env's generated-trace LRU: past DefaultTraceCacheSize
// names, the least recently used one is dropped and regenerated on demand
// if asked for again, so memory stays bounded at sweeps of any width.
type traceCache struct {
	mu        sync.Mutex
	entries   *lru.Cache[string, *traceEntry]
	generated atomic.Int64 // traces actually generated (tests assert dedup)
}

func newTraceCache() *traceCache {
	return &traceCache{entries: lru.New[string, *traceEntry](DefaultTraceCacheSize)}
}

// DefaultTraceCacheSize bounds the generated-trace cache: enough that a
// sweep's worker pool keeps its in-flight names resident, small enough that
// a 25-application run does not pin 25 traces.
const DefaultTraceCacheSize = 8

// traceEntry dedups generation per name: the mutex only guards the cache, so
// two workers asking for different traces generate concurrently, while two
// asking for the same one block on its Once and generate it exactly once.
// The generated trace is immutable: Trace clones it, Stream reads it in
// place, and eviction just drops the cache's reference (in-flight holders
// keep theirs alive).
type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
}

// NewEnv builds an environment with the default profile registry.
func NewEnv(seed uint64) *Env {
	return &Env{Seed: seed, Registry: workload.DefaultRegistry(), traceCache: newTraceCache()}
}

// withSeed returns a copy of e that keeps every setting (workers,
// observability, faults, backend, fork, context) but generates its traces
// from seed into its own empty cache.
func (e *Env) withSeed(seed uint64) *Env {
	out := *e
	out.Seed = seed
	out.traceCache = newTraceCache()
	return &out
}

// DefaultEnv uses the repository's canonical seed.
func DefaultEnv() *Env { return NewEnv(workload.DefaultSeed) }

// context resolves the env's sweep context (Ctx, or Background).
func (e *Env) context() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// entry returns the cache slot for name, creating it (and evicting the
// least recently used slot past the bound) as needed.
func (e *Env) entry(name string) *traceEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.entries.Get(name); ok {
		return ent
	}
	ent := &traceEntry{}
	e.entries.Add(name, ent)
	return ent
}

// shared returns the immutable cached generated trace for name,
// generating it if needed. Callers must not mutate the result.
func (e *Env) shared(name string) *trace.Trace {
	ent := e.entry(name)
	ent.once.Do(func() {
		prof := e.Registry.Lookup(name)
		if prof == nil {
			panic("experiments: unknown trace " + name)
		}
		ent.tr = prof.Generate(e.Seed)
		e.generated.Add(1)
	})
	return ent.tr
}

// Trace returns the named generated trace with clean (unreplayed)
// timestamps. Generation results are cached; callers get a fresh private
// copy they may mutate. Safe for concurrent use. Replay paths no longer
// go through here — they pull from Stream, which does not clone.
func (e *Env) Trace(name string) *trace.Trace {
	// The cached trace is immutable after generation; Clone only reads it.
	out := e.shared(name).Clone()
	out.ClearTimestamps()
	return out
}

// Stream returns the named generated trace as a trace.Stream without
// cloning: the stream reads the shared immutable cache entry in place
// (resolved lazily, on the first pull), so a sweep job's replay memory is
// the stream plus the device — never a private trace copy. Safe for
// concurrent use; each call returns an independent stream.
func (e *Env) Stream(name string) trace.Stream {
	return trace.Generated(name, func() *trace.Trace { return e.shared(name) })
}

// MeasuredDeviceTiming approximates the real Nexus 5 eMMC that §II–§III
// measured (as opposed to the Table V simulation timing of
// core.DefaultTiming): an interleaving controller with a 100 MB/s channel,
// cache-mode pipelining, and Table V flash latencies. Fig. 3 and the
// Table IV replays use this profile.
func MeasuredDeviceTiming() flash.Timing {
	return flash.Timing{
		PerPage: map[int]flash.OpTiming{
			4096: {ReadNs: 160_000, ProgramNs: 1_385_000},
			8192: {ReadNs: 244_000, ProgramNs: 1_491_000},
		},
		EraseNs:           3_800_000,
		TransferNsPerByte: 10,
		CmdOverheadNs:     25_000,
		RequestOverheadNs: 150_000,
		PipelineFactor:    0.65,
		ChannelInterleave: true,
	}
}

// MeasuredDeviceOptions configures the trace-collection device: the
// measured timing profile with the power-saving model enabled
// (Characteristic 4 is about the real device's sleep states).
func MeasuredDeviceOptions() core.Options {
	t := MeasuredDeviceTiming()
	return core.Options{PowerSaving: true, GCPolicy: emmc.GCForeground, Timing: &t}
}

// NewMeasuredDevice builds the 4 KB-page device standing in for the
// SanDisk iNAND the paper traced.
func NewMeasuredDevice() (storage.Device, error) {
	return core.NewDevice(core.Scheme4PS, MeasuredDeviceOptions())
}
