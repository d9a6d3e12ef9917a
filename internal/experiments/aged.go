package experiments

import (
	"context"
	"fmt"

	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/runner"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// The aged study: replay traces on a device that already has history. The
// slow path ages a fresh device per replay by running a prep workload; the
// fast path forks one archived snapshot of that same prep (Env.Fork, fed
// by the device store). Both paths end at the same device state — sealed
// snapshots are byte-deterministic — so the study's rendered table is
// bit-identical either way, which is the contract the snapshot store's
// existence rests on.

// AgePrep describes the aging prep an age job replays onto fresh flash
// before the device is sealed: which trace, how many back-to-back
// sessions, on what scheme and device options.
type AgePrep struct {
	// Trace names the prep workload (default: the write-heavy Twitter
	// trace, which actually wears the flash).
	Trace string
	// Sessions repeats the prep back to back (default 2).
	Sessions int
	// Scheme is the partition scheme the device ages under (default 4PS).
	Scheme core.Scheme
	// Options configures the device (zero value: core.CaseStudyOptions).
	Options core.Options
	// optionsSet distinguishes an explicit zero Options from the default.
	optionsSet bool
}

// normalize fills defaults in place.
func (p *AgePrep) normalize() {
	if p.Trace == "" {
		p.Trace = paper.Twitter
	}
	if p.Sessions <= 0 {
		p.Sessions = 2
	}
	if !p.optionsSet && p.Options == (core.Options{}) {
		p.Options = core.CaseStudyOptions()
	}
}

// SetOptions records an explicit device configuration (even a zero one).
func (p *AgePrep) SetOptions(opt core.Options) {
	p.Options = opt
	p.optionsSet = true
}

// AgeDevice replays the prep workload onto fresh flash and returns the
// worn device — the expensive once-per-store operation whose sealed result
// every fork then reuses. The device's telemetry is left detached so the
// aged state does not depend on who observed the aging.
func AgeDevice(env *Env, p AgePrep) (storage.Device, error) {
	p.normalize()
	dev, err := core.NewDevice(p.Scheme, p.Options)
	if err != nil {
		return nil, err
	}
	st := env.Stream(p.Trace)
	if p.Sessions > 1 {
		st = trace.Repeat(st, p.Sessions, 1_000_000_000)
	}
	if _, err := core.Replay(env.context(), dev, p.Scheme, st, core.ReplayOpts{}); err != nil {
		return nil, fmt.Errorf("experiments: aging prep %s x%d: %w", p.Trace, p.Sessions, err)
	}
	return dev, nil
}

// AgedPoint is one trace replayed on a fork of the aged device.
type AgedPoint struct {
	Trace string
	// MRTMs is the mean response time on the worn device.
	MRTMs float64
	// NoWaitPct is the fraction of requests served without queueing.
	NoWaitPct float64
	// GCStallMs is foreground GC time charged to requests — the metric wear
	// moves first.
	GCStallMs float64
	// FaultDraws is the device's injector position after the replay (0 with
	// faults off): the fork-determinism witness, equal across fast and slow
	// paths when both started from the same archived draw position.
	FaultDraws int64
}

// AgedStudy replays each trace on its own aged device: a fork of the
// archived snapshot when Env.Fork is set (the fast path), a freshly re-aged
// device per trace otherwise (the slow path, AgeDevice per point). Results
// are in roster order and bit-identical between paths and at any worker
// width — every point owns a private device either way.
func AgedStudy(env *Env, p AgePrep, traces []string) ([]AgedPoint, error) {
	p.normalize()
	if len(traces) == 0 {
		traces = append([]string(nil), paper.IndividualApps...)
	}
	fork := env.Fork
	if fork == nil {
		fork = func() (storage.Device, error) { return AgeDevice(env, p) }
	}
	return runner.MapContext(env.context(), env.Runner(), "aged", traces,
		func(ctx context.Context, _ int, name string) (AgedPoint, error) {
			dev, err := fork()
			if err != nil {
				return AgedPoint{}, err
			}
			m, err := core.Replay(ctx, dev, p.Scheme, core.Resume(dev, env.Stream(name)),
				core.ReplayOpts{Registry: env.Telemetry, Tracer: env.Tracer})
			if err != nil {
				return AgedPoint{}, err
			}
			return AgedPoint{
				Trace:      name,
				MRTMs:      m.MeanResponseNs / 1e6,
				NoWaitPct:  m.NoWaitRatio * 100,
				GCStallMs:  float64(m.GCStallNs) / 1e6,
				FaultDraws: dev.FaultDraws(),
			}, nil
		})
}

// RenderAgedStudy renders the study.
func RenderAgedStudy(prep AgePrep, pts []AgedPoint) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Aged replay: traces on a device worn by %s x%d (%s)",
			prep.Trace, prep.Sessions, prep.Scheme),
		"Trace", "MRT (ms)", "No-wait %", "GC stall (ms)")
	for _, p := range pts {
		t.AddRow(p.Trace, report.F(p.MRTMs, 3), report.F(p.NoWaitPct, 1), report.F(p.GCStallMs, 2))
	}
	return t
}
