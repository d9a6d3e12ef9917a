package experiments

import (
	"context"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/reliability"
	"emmcio/internal/telemetry"
)

// A rate-zero fault config must be bit-identical to no fault config at all:
// the injector never draws, so every metric of a replay matches the
// fault-free build exactly. This pins the zero-overhead off switch — with
// -faults 0 the simulator reproduces pre-fault-plane outputs.
func TestFaultRateZeroBitIdenticalToNoFaults(t *testing.T) {
	env := DefaultEnv()
	replay := func(cfg *faults.Config) (core.Metrics, interface{}) {
		opt := core.CaseStudyOptions()
		opt.Faults = cfg
		dev, err := core.NewDevice(core.Scheme4PS, opt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Replay(context.Background(), dev, core.Scheme4PS, env.Stream(paper.Twitter), core.ReplayOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return m, dev.FTLStats()
	}
	mOff, sOff := replay(nil)
	mZero, sZero := replay(&faults.Config{Seed: 99, Rate: 0})
	if mOff != mZero {
		t.Fatalf("metrics differ with a rate-0 injector:\n  nil:    %+v\n  rate-0: %+v", mOff, mZero)
	}
	if sOff != sZero {
		t.Fatalf("FTL stats differ with a rate-0 injector:\n  nil:    %+v\n  rate-0: %+v", sOff, sZero)
	}
}

// The fault ramp is bit-identical at any worker-pool width: each cell owns
// a private injector seeded from (seed, cell index), so fault sequences
// cannot depend on scheduling.
func TestFaultSweepDeterminism(t *testing.T) {
	rates := []float64{0, 0.2, 1}
	run := func(workers int) []FaultPoint {
		env := DefaultEnv()
		env.Workers = workers
		pts, err := FaultSweep(env, "", 42, rates)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial := run(1)
	wide := run(8)
	if len(serial) != len(wide) {
		t.Fatal("point count mismatch")
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("point %d differs:\n-j 1 %+v\n-j 8 %+v", i, serial[i], wide[i])
		}
	}
}

// The ramp's healthy rows must show the fault plane working: more faults
// and more retired blocks at a higher rate, and a higher MRT than the
// fault-free row for the same scheme.
func TestFaultSweepRampShape(t *testing.T) {
	pts, err := FaultSweep(DefaultEnv(), "", 7, []float64{0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*len(core.Schemes) {
		t.Fatalf("want %d points, got %d", 2*len(core.Schemes), len(pts))
	}
	for i, s := range core.Schemes {
		base, faulty := pts[i], pts[i+len(core.Schemes)]
		if base.Err != "" || faulty.Err != "" {
			t.Fatalf("%s: low-rate rows should survive: %q / %q", s, base.Err, faulty.Err)
		}
		if base.ProgramFaults != 0 || base.RetiredBlocks != 0 {
			t.Fatalf("%s: faults at rate 0: %+v", s, base)
		}
		if faulty.ProgramFaults == 0 || faulty.RetiredBlocks == 0 {
			t.Fatalf("%s: no faults at rate 0.1: %+v", s, faulty)
		}
		if faulty.MRTMs <= base.MRTMs {
			t.Errorf("%s: MRT did not rise under faults: %.3f -> %.3f", s, base.MRTMs, faulty.MRTMs)
		}
	}
}

// A deeply-aged device (1.5x rated endurance, where the reliability model's
// read-failure curve saturates) replays to completion while reporting
// uncorrectable reads, read-scrub retirements, and recovery latency —
// through metrics and telemetry counters alike. Program/erase bases are
// dialed down so wear that extreme doesn't just eat the whole pool.
func TestDeepAgedReplayRecoversReads(t *testing.T) {
	model := reliability.Default()
	opt := core.CaseStudyOptions()
	opt.Reliability = model
	opt.Faults = &faults.Config{
		Seed:            5,
		Rate:            1,
		ProgramFailBase: 1e-7,
		EraseFailBase:   1e-7,
		Model:           model,
	}
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DeviceConfig(core.Scheme4PS, opt)
	for pool, spec := range cfg.Pools {
		blocks := int64(spec.BlocksPerPlane * cfg.Geometry.Planes())
		dev.AddArtificialWear(pool, int64(1.5*model.Endurance*float64(blocks)))
	}
	reg := telemetry.NewRegistry()
	env := DefaultEnv()
	m, err := core.Replay(context.Background(), dev, core.Scheme4PS, env.Stream(paper.Twitter), core.ReplayOpts{Registry: reg})
	if err != nil {
		t.Fatalf("deep-aged replay died: %v", err)
	}
	if m.ReadFaults == 0 || m.RecoveryNs == 0 {
		t.Fatalf("no read recovery at 1.5x endurance: %+v", m)
	}
	if m.RetiredBlocks == 0 {
		t.Fatalf("read scrubbing retired nothing: %+v", m)
	}
	if got := dev.FaultCounts().Read; got != m.ReadFaults {
		t.Fatalf("injector read count %d != metrics %d", got, m.ReadFaults)
	}
	for _, c := range []struct {
		name string
		val  int64
	}{
		{"emmc_read_faults_total", reg.Counter("emmc_read_faults_total").Value()},
		{"emmc_fault_recovery_ns_total", reg.Counter("emmc_fault_recovery_ns_total").Value()},
		{"ftl_blocks_retired_total", reg.Counter("ftl_blocks_retired_total").Value()},
		{"faults_injected_total{read}", reg.Counter("faults_injected_total", telemetry.L("kind", "read")).Value()},
		{"emmc_fault_recovery_ns histogram", reg.Histogram("emmc_fault_recovery_ns", nil).Count()},
	} {
		if c.val == 0 {
			t.Errorf("telemetry counter %s stayed zero", c.name)
		}
	}
}
