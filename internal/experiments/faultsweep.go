package experiments

import (
	"context"
	"fmt"
	"strings"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/reliability"
	"emmcio/internal/report"
	"emmcio/internal/rng"
	"emmcio/internal/runner"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// FaultPoint is one (fault rate, scheme) cell of the fault-ramp sweep.
type FaultPoint struct {
	// Rate is the fault-probability multiplier (0 = perfect hardware).
	Rate   float64
	Scheme core.Scheme
	// MRTMs is the replayed mean response time, fault recovery included.
	MRTMs float64
	// SpaceUtil is the paper's §V space metric; retirements shrink the pool
	// but waste is what moves it.
	SpaceUtil float64
	// Fault outcome totals for the replay.
	ProgramFaults int64
	EraseFaults   int64
	ReadFaults    int64
	RetiredBlocks int64
	// RecoveryMs is read-recovery time charged to the timeline.
	RecoveryMs float64
	// Err is non-empty when the device died mid-replay (ENOSPC from a
	// shrunk-to-nothing pool, unrecoverable read) — at high rates that is a
	// result, not a sweep failure.
	Err string
}

// faultSweepSessions is how many back-to-back trace sessions each cell
// replays: one session of the shrunk device fits entirely in flash, so GC
// (and with it the erase-fault path) only engages when the trace repeats.
const faultSweepSessions = 3

// FaultSweep replays one trace on deeply-aged 4PS/8PS/HPS devices while the
// fault-injection rate ramps, measuring how each page-size organization
// degrades when the hardware starts failing: MRT absorbs recovery latency
// and GC-amplified relocation, and grown bad blocks eat the free pool. The
// devices are pre-aged to their full rated endurance so the wear-dependent
// fault curves are in their steep region — the Fig. 9 endurance argument,
// continued past the point where the paper's fault-free simulator stops.
//
// The sweep raises EraseFailBase 10x over the package default: a replay
// programs two orders of magnitude more pages than it erases blocks, so at
// the default base the erase-fault path would not resolve above zero at
// sweep-length timescales.
//
// Determinism: each job owns a private injector seeded from (seed, job
// index), so results are bit-identical at any worker count.
func FaultSweep(env *Env, name string, seed uint64, rates []float64) ([]FaultPoint, error) {
	if name == "" {
		name = paper.Twitter // write-heavy: exercises program/erase faults
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.1, 0.2, 0.5, 1}
	}
	model := reliability.Default()
	type cell struct {
		rate   float64
		scheme core.Scheme
		seed   uint64
	}
	var plan []cell
	for _, rate := range rates {
		for _, s := range core.Schemes {
			mix := seed + uint64(len(plan))
			plan = append(plan, cell{rate: rate, scheme: s, seed: rng.SplitMix64(&mix)})
		}
	}
	// Errors are captured per point, not aggregated: a device dying at rate
	// 4 is the measurement, not a reason to lose the rest of the sweep.
	return runner.MapContext(env.context(), env.Runner(), "faultsweep", plan, func(ctx context.Context, _ int, c cell) (FaultPoint, error) {
		pt := FaultPoint{Rate: c.rate, Scheme: c.scheme}
		var dev storage.Device
		var err error
		if env.Fork != nil {
			// Fork the archived aged snapshot once per cell instead of
			// rebuilding and re-aging fresh flash 15 times.
			dev, err = env.Fork()
		} else {
			opt := core.CaseStudyOptions()
			opt.Reliability = model
			// Shrink the device so GC pressure (and thus erase/program
			// traffic) is realistic within one trace replay, matching the
			// gcpressure sweep's regime.
			opt.ScaleBlocks = gcPressureScaleBlocks
			opt.ScalePages = gcPressureScalePages
			dev, err = core.NewDevice(c.scheme, opt)
		}
		if err != nil {
			return pt, err // config bug: fail the sweep loudly
		}
		// Arm the cell's fault regime after construction. SetFaultConfig
		// hands the device a fresh injector at draw 0 — exactly what a
		// construction-time config would have produced — which is what lets
		// one faultless aged device serve every (rate, seed) cell.
		if c.rate > 0 {
			if err := dev.SetFaultConfig(&faults.Config{
				Seed:          c.seed,
				Rate:          c.rate,
				EraseFailBase: 10 * faults.DefaultEraseFailBase,
				Model:         model,
			}); err != nil {
				return pt, err
			}
		}
		// Pre-age every pool to rated endurance: the steep region of the
		// wear curves, where real devices grow bad blocks. Forks get the
		// same top-up on top of their replayed wear.
		planes := dev.Geometry().Planes()
		for pool, spec := range dev.Pools() {
			blocks := int64(spec.BlocksPerPlane * planes)
			dev.AddArtificialWear(pool, int64(model.Endurance*float64(blocks)))
		}
		st := trace.Repeat(env.Stream(name), faultSweepSessions, 1_000_000_000)
		if env.Fork != nil {
			st = core.Resume(dev, st)
		}
		m, err := core.Replay(ctx, dev, c.scheme, st, core.ReplayOpts{Registry: env.Telemetry, Tracer: env.Tracer})
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation is a sweep abort, not a device-death data point.
				return pt, err
			}
			pt.Err = err.Error()
		}
		pt.MRTMs = m.MeanResponseNs / 1e6
		pt.SpaceUtil = m.SpaceUtilization
		pt.ProgramFaults = m.ProgramFaults
		pt.EraseFaults = m.EraseFaults
		pt.ReadFaults = m.ReadFaults
		pt.RetiredBlocks = m.RetiredBlocks
		pt.RecoveryMs = float64(m.RecoveryNs) / 1e6
		if err != nil {
			// The partial replay's counters are gone with the error; report
			// what the device accumulated before dying.
			fs := dev.FTLStats()
			dm := dev.Metrics()
			pt.ProgramFaults = fs.ProgramFaults
			pt.EraseFaults = fs.EraseFaults
			pt.RetiredBlocks = fs.RetiredBlocks
			pt.ReadFaults = dm.ReadFaults
			pt.RecoveryMs = float64(dm.RecoveryNs) / 1e6
		}
		return pt, nil
	})
}

// RenderFaultSweep renders the ramp.
func RenderFaultSweep(name string, pts []FaultPoint) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fault ramp: %s on devices aged to rated endurance", name),
		"Rate", "Scheme", "MRT(ms)", "SpaceUtil", "PgmFail", "ErsFail", "RdFail", "Retired", "Recovery(ms)", "Outcome")
	for _, p := range pts {
		outcome := "ok"
		if p.Err != "" {
			line, _, _ := strings.Cut(p.Err, "\n")
			outcome = elide(line, 76)
		}
		t.AddRow(report.F(p.Rate, 1), p.Scheme.String(),
			report.F(p.MRTMs, 3), report.F(p.SpaceUtil, 4),
			fmt.Sprintf("%d", p.ProgramFaults), fmt.Sprintf("%d", p.EraseFaults),
			fmt.Sprintf("%d", p.ReadFaults), fmt.Sprintf("%d", p.RetiredBlocks),
			report.F(p.RecoveryMs, 1), outcome)
	}
	return t
}

// elide keeps a long wrap chain readable in a table cell: the head names the
// failing request, the tail names the root cause, the middle is the least
// interesting part.
func elide(s string, max int) string {
	if len(s) <= max {
		return s
	}
	head := max * 2 / 3
	tail := max - head - 5
	return s[:head] + " ... " + s[len(s)-tail:]
}
