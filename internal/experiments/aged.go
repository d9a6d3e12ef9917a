package experiments

import (
	"fmt"

	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// Aged devices: AgeDevice replays a prep workload onto fresh flash, the
// slow path to a device with history. The fast path forks one archived
// snapshot of that same prep (Env.Fork, fed by the device store). Sealed
// snapshots are byte-deterministic, so a ReplayJob whose Device re-ages
// and one that forks replay to identical metrics; the sweep path
// (Env.Replays) resumes the stream after either device's history.

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
