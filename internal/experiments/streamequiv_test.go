package experiments

import (
	"context"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/reliability"
	"emmcio/internal/rng"
	"emmcio/internal/runner"
	"emmcio/internal/trace"
)

// TestStreamingReplayEquivalence is the refactor's load-bearing property:
// replaying a generated stream must produce results bit-identical to
// replaying the materialized trace — the full Metrics struct on success,
// and the same error plus post-mortem device counters when an aged faulty
// device dies mid-replay — for every trace × scheme, at any worker count,
// with fault injection off and on. Any drift here means the streaming
// pipeline changed the simulation, not just its memory profile.
func TestStreamingReplayEquivalence(t *testing.T) {
	env := DefaultEnv()
	type cell struct {
		name   string
		scheme core.Scheme
		faulty bool
	}
	// outcome captures everything one replay can produce. Comparable with
	// ==, so bit-identity is the struct equality below.
	type outcome struct {
		metrics core.Metrics
		errStr  string
		// Post-mortem counters: on a mid-replay death the returned Metrics
		// is zero, so equivalence is enforced on the device state instead.
		served, pgmFaults, ersFaults, readFaults, retired, recoveryNs int64
	}
	var plan []cell
	for _, faulty := range []bool{false, true} {
		for _, name := range paper.AllTraces {
			for _, s := range core.Schemes {
				plan = append(plan, cell{name: name, scheme: s, faulty: faulty})
			}
		}
	}

	// run replays one cell and never fails the sweep: a device dying at
	// endurance under rate-0.5 faults is a result both paths must agree on.
	run := func(i int, c cell, streamed bool) (outcome, error) {
		opt := core.CaseStudyOptions()
		if c.faulty {
			// Shrink the pools and age the device so wear-dependent fault
			// probabilities are non-trivial; seed per cell so both replay
			// paths draw identical fault decisions.
			opt.ScaleBlocks = gcPressureScaleBlocks
			opt.ScalePages = gcPressureScalePages
			mix := uint64(i%(len(plan)/2)) + 1
			opt.Reliability = reliability.Default()
			opt.Faults = &faults.Config{
				Seed:  rng.SplitMix64(&mix),
				Rate:  0.5,
				Model: opt.Reliability,
			}
		}
		dev, err := core.NewDevice(c.scheme, opt)
		if err != nil {
			return outcome{}, err // config bug: fail loudly
		}
		if c.faulty {
			cfg := core.DeviceConfig(c.scheme, opt)
			for pool, spec := range cfg.Pools {
				blocks := int64(spec.BlocksPerPlane * cfg.Geometry.Planes())
				dev.AddArtificialWear(pool, int64(opt.Reliability.Endurance*float64(blocks)))
			}
		}
		var m core.Metrics
		if streamed {
			m, err = core.Replay(context.Background(), dev, c.scheme, env.Stream(c.name), core.ReplayOpts{})
		} else {
			m, err = core.Replay(context.Background(), dev, c.scheme, trace.FromSlice(env.Trace(c.name)), core.ReplayOpts{})
		}
		out := outcome{metrics: m}
		if err != nil {
			out.errStr = err.Error()
		}
		fs, dm := dev.FTLStats(), dev.Metrics()
		out.served = dm.Served
		out.pgmFaults = fs.ProgramFaults
		out.ersFaults = fs.EraseFaults
		out.retired = fs.RetiredBlocks
		out.readFaults = dm.ReadFaults
		out.recoveryNs = dm.RecoveryNs
		return out, nil
	}

	// Materialized baseline, sequential: the trace goes through the slice
	// adapter exactly as pre-stream callers did.
	baseline := make([]outcome, len(plan))
	for i, c := range plan {
		o, err := run(i, c, false)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.name, c.scheme, err)
		}
		baseline[i] = o
	}

	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		got, err := runner.Map(runner.New(workers), "streamequiv", plan,
			func(i int, c cell) (outcome, error) { return run(i, c, true) })
		if err != nil {
			t.Fatalf("streaming replay (-j %d): %v", workers, err)
		}
		for i, c := range plan {
			if got[i] != baseline[i] {
				t.Errorf("-j %d %s/%s faulty=%v: streaming outcome diverges\n  stream: %+v\n  slice:  %+v",
					workers, c.name, c.scheme, c.faulty, got[i], baseline[i])
			}
		}
	}
}
