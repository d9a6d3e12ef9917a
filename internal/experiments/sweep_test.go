package experiments

import (
	"context"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
)

// A scheduled (non-FIFO) sweep job runs on the device its builder returns,
// with the env's telemetry attached, and reports exactly what core.Replay
// reports for the same policy on an identically built device.
func TestScheduledJobUsesJobDevice(t *testing.T) {
	opt := core.CaseStudyOptions()
	opt.Faults = &faults.Config{Seed: 7, Rate: 20}
	opt.RAMBufferBytes = 1 << 20
	build := func() (storage.Device, error) { return core.NewDevice(core.SchemeHPS, opt) }
	var built storage.Device
	job := ReplayJob{Trace: paper.Messaging, Scheme: core.SchemeHPS, Policy: core.SchedSJF,
		Device: func() (storage.Device, error) {
			dev, err := build()
			built = dev
			return dev, err
		}}

	env := DefaultEnv()
	env.Telemetry = telemetry.NewRegistry()
	results, err := env.Replays("scheduled-device", []ReplayJob{job})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if built == nil || res.Device != built {
		t.Fatalf("result device %v, want the one the job's builder returned (%v)", res.Device, built)
	}

	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Replay(context.Background(), ref, core.SchemeHPS, env.Stream(paper.Messaging),
		core.ReplayOpts{Policy: core.SchedSJF})
	if err != nil {
		t.Fatal(err)
	}
	if want.ProgramFaults == 0 || want.BufferHitRate == 0 {
		t.Fatalf("builder's faults and buffer do not show in the reference replay: %+v", want)
	}
	if res.Metrics != want {
		t.Fatalf("scheduled job Metrics differ from core.Replay on the built device:\njob  %+v\nwant %+v", res.Metrics, want)
	}

	served := env.Telemetry.Counter("core_requests_total", telemetry.L("op", "read")).Value() +
		env.Telemetry.Counter("core_requests_total", telemetry.L("op", "write")).Value()
	if served != int64(res.Metrics.Served) {
		t.Fatalf("core_requests_total = %d, want Served = %d", served, res.Metrics.Served)
	}
}
