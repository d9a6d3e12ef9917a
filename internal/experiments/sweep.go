package experiments

import (
	"context"

	"emmcio/internal/analysis"
	"emmcio/internal/biotracer"
	"emmcio/internal/core"
	"emmcio/internal/runner"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// ReplayJob is one entry of a declarative sweep plan: a named trace
// replayed once on its own fresh device. Every experiment in this package
// builds a []ReplayJob and hands it to Env.Replays; nothing replays through
// bespoke loops anymore.
//
// Jobs pull their requests from a trace.Stream (Env.Stream), so a replay
// holds no private trace copy: memory is the device plus whatever the job
// explicitly asks to materialize (WantTrace) or accumulate (WantStats).
type ReplayJob struct {
	// Trace names the workload (resolved through Env.Stream, so generation
	// is cached, deduplicated, and bounded across concurrent jobs).
	Trace string
	// Scheme and Options configure the device (core.NewDevice) unless
	// Device overrides construction.
	Scheme  core.Scheme
	Options core.Options
	// Prepare, when non-nil, transforms a private materialized copy of the
	// job's trace before the replay — for transforms that need the whole
	// trace in hand (session doubling). Prefer PrepareStream when the
	// transform is per-request.
	Prepare func(*trace.Trace) *trace.Trace
	// PrepareStream, when non-nil, wraps the job's request stream
	// (filtering, arrival scaling, session repetition) without
	// materializing anything. Applied after Prepare if both are set.
	PrepareStream func(trace.Stream) trace.Stream
	// Device, when non-nil, builds the device instead of core.NewDevice —
	// for custom emmc.Configs or pre-aged devices. It must return a fresh
	// device on every call.
	Device func() (storage.Device, error)
	// Policy selects host-side scheduling (core.ReplayOpts.Policy) when
	// not SchedFIFO. Collect jobs ignore it.
	Policy core.SchedPolicy
	// Collect routes the replay through biotracer.CollectStream (the §II-C
	// trace-collection path) instead of the plain streaming replay. The
	// result carries the Overhead instead of Metrics.
	Collect bool
	// WantTrace materializes the replayed request sequence into the
	// result's Trace — only for consumers that genuinely need the
	// requests; everything statistical should use WantStats instead.
	WantTrace bool
	// WantStats feeds every completed request into an online
	// analysis.Accumulator exposed as the result's Stats: Table III/IV
	// columns, the Figs. 4–7 histograms and the §III-C localities in one
	// pass, no materialized trace.
	WantStats bool
}

// ReplayResult is one job's outcome. Metrics is set for plain and scheduled
// replays, Overhead for Collect jobs. Trace is the replayed request
// sequence (nil unless the job set WantTrace), Stats the online
// accumulator (nil unless WantStats). Device is the device the job ran on,
// so callers can read wear, FTL, or cache state.
type ReplayResult struct {
	Metrics  core.Metrics
	Overhead biotracer.Overhead
	Trace    *trace.Trace
	Stats    *analysis.Accumulator
	Device   storage.Device
}

// Runner returns the env's sweep runner: Workers wide, observing the env's
// telemetry registry.
func (e *Env) Runner() *runner.Runner {
	return runner.New(e.Workers).Observe(e.Telemetry)
}

// Replays executes the plan on the env's worker pool and returns results in
// plan order — bit-identical at any pool width, since each job replays its
// own stream on its own fresh device. The env's Telemetry and Tracer are
// attached to every device-backed replay, observed and collection paths
// alike. The sweep is bounded by Env.Ctx; use ReplaysContext to pass a
// call-scoped context instead.
func (e *Env) Replays(sweep string, jobs []ReplayJob) ([]ReplayResult, error) {
	return e.ReplaysContext(e.context(), sweep, jobs)
}

// ReplaysContext is Replays bounded by an explicit context: once ctx is
// done, queued jobs fail fast and running replays abort between events, so
// a sweep cancels in bounded time regardless of plan size.
func (e *Env) ReplaysContext(ctx context.Context, sweep string, jobs []ReplayJob) ([]ReplayResult, error) {
	return runner.MapContext(ctx, e.Runner(), sweep, jobs, func(ctx context.Context, _ int, j ReplayJob) (ReplayResult, error) {
		return e.replay(ctx, j)
	})
}

func (e *Env) replay(ctx context.Context, j ReplayJob) (ReplayResult, error) {
	if e.Faults != nil && j.Options.Faults == nil && j.Device == nil {
		j.Options.Faults = e.Faults
	}
	if e.Backend != "" && j.Options.Backend == "" && j.Device == nil {
		j.Options.Backend = e.Backend
		j.Options.UFSQueues = e.UFSQueues
		j.Options.UFSQueueDepth = e.UFSQueueDepth
		j.Options.UFSBoosterBytes = e.UFSBoosterBytes
	}
	var st trace.Stream
	if j.Prepare != nil {
		// Whole-trace transforms get a private materialized copy; this is
		// the only sweep path that still clones.
		st = trace.FromSlice(j.Prepare(e.Trace(j.Trace)))
	} else {
		st = e.Stream(j.Trace)
	}
	if j.PrepareStream != nil {
		st = j.PrepareStream(st)
	}

	var res ReplayResult
	var sinks []func(trace.Request) error
	if j.WantStats {
		res.Stats = analysis.NewAccumulator(st.Name())
		sinks = append(sinks, func(r trace.Request) error { res.Stats.Add(r); return nil })
	}
	if j.WantTrace {
		res.Trace = &trace.Trace{Name: st.Name()}
		sinks = append(sinks, func(r trace.Request) error {
			res.Trace.Reqs = append(res.Trace.Reqs, r)
			return nil
		})
	}
	var sink func(trace.Request) error
	switch len(sinks) {
	case 1:
		sink = sinks[0]
	case 2:
		sink = func(r trace.Request) error {
			for _, s := range sinks {
				if err := s(r); err != nil {
					return err
				}
			}
			return nil
		}
	}

	var dev storage.Device
	var err error
	switch {
	case j.Device != nil:
		dev, err = j.Device()
	case e.Fork != nil && !j.Collect:
		// Fork the archived aged device instead of building fresh flash.
		dev, err = e.Fork()
		if err == nil {
			if fc := j.Options.Faults; fc != nil {
				err = dev.SetFaultConfig(fc)
			}
		}
	default:
		dev, err = core.NewDevice(j.Scheme, j.Options)
	}
	if err != nil {
		return ReplayResult{}, err
	}
	if dev.LastActivity() > 0 {
		// The device carries replayed history (an env.Fork or a custom
		// builder handing out a fork): resume after it, the same idle-gap
		// shift emmcsim's -load applies. Fresh devices are untouched.
		st = core.Resume(dev, st)
	}
	res.Device = dev
	if j.Collect {
		if e.Telemetry != nil || e.Tracer != nil {
			dev.SetTelemetry(e.Telemetry, e.Tracer)
		}
		// The collection loop knows nothing about contexts; a ctx-bounded
		// stream cancels it between requests all the same.
		res.Overhead, err = biotracer.CollectStream(dev, trace.WithContext(ctx, st), sink)
		return res, err
	}
	res.Metrics, err = core.Replay(ctx, dev, j.Scheme, st,
		core.ReplayOpts{Policy: j.Policy, Registry: e.Telemetry, Tracer: e.Tracer, Sink: sink})
	if res.Trace != nil && j.Policy != core.SchedFIFO {
		// The sink saw dispatch order; restore arrival order.
		res.Trace.SortByArrival()
	}
	return res, err
}
