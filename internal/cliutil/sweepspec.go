package cliutil

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"strings"

	"emmcio/internal/core"
	"emmcio/internal/experiments"
	"emmcio/internal/report"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/workload"
)

// SweepSpec describes a study job for the emmcd server: which studies to
// run, on what seed and worker width, under what fault regime, optionally
// narrowed to a trace roster. It shares the fault validation path with the
// CLIs' -faults/-fault-seed flags.
type SweepSpec struct {
	// Sweeps names the studies to run, in order (experiments.StudyNames
	// lists the choices).
	Sweeps []string `json:"sweeps"`
	// Seed drives trace generation (0 = the repository's canonical seed).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the sweep worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Faults is the fault-injection rate applied to every replay
	// (0 = perfect hardware).
	Faults float64 `json:"faults,omitempty"`
	// FaultSeed is the injection decision seed (requires Faults > 0).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Traces, when non-empty, narrows per-trace studies to this roster
	// (see experiments.Study.Run).
	Traces []string `json:"traces,omitempty"`
	// FromDevice runs the sweep's replays on forks of the archived device
	// snapshot with this id instead of fresh devices — the aged-device fast
	// path. Requires a device source (SetDeviceSource) in the process that
	// runs the sweep; the coordinator pre-pushes the snapshot to workers.
	FromDevice string `json:"from_device,omitempty"`
	// DeviceSpec selects the storage backend every replay in the sweep runs
	// against (-device / "device"); unknown names 400 before queueing.
	DeviceSpec

	source DeviceSource
}

// SetDeviceSource attaches the snapshot source FromDevice resolves
// against. It does not travel with the spec's JSON form; struct copies
// (the coordinator's shard fan-out) preserve it.
func (s *SweepSpec) SetDeviceSource(src DeviceSource) { s.source = src }

// DeviceSnapshot fetches the sealed snapshot bytes FromDevice names — what
// the coordinator pre-pushes to its workers before submitting shards. It
// fails fast when no source is configured or the id is unknown.
func (s *SweepSpec) DeviceSnapshot() ([]byte, error) {
	if s.source == nil {
		return nil, fmt.Errorf("sweep from device %q: no device store configured", s.FromDevice)
	}
	return s.source.OpenDevice(s.FromDevice)
}

// BindFlags registers the spec's fields as CLI flags on fs — the
// coordinator CLI's interface; the JSON tags above remain emmcd's. The
// fault-seed default of 0 means "unset", matching the JSON semantics
// (FaultConfig treats a zero seed with a non-zero rate as seed 1).
func (s *SweepSpec) BindFlags(fs *flag.FlagSet) {
	fs.Var(CSVList{&s.Sweeps}, "sweeps",
		"comma-separated studies to run ("+strings.Join(experiments.StudyNames(), ", ")+")")
	fs.Var(CSVList{&s.Traces}, "traces",
		"comma-separated trace roster narrowing per-trace studies (empty = every trace)")
	fs.Uint64Var(&s.Seed, "seed", workload.DefaultSeed, "workload generation seed")
	fs.IntVar(&s.Workers, "j", 0, "per-sweep worker pool width (0 = GOMAXPROCS)")
	fs.Float64Var(&s.Faults, "faults", 0, "fault-injection rate multiplier (0 = perfect hardware)")
	fs.Uint64Var(&s.FaultSeed, "fault-seed", 0, "fault-injection decision seed (requires -faults > 0; 0 = unset)")
	fs.StringVar(&s.FromDevice, "from-device", "", "run sweep replays on forks of this archived device snapshot")
	s.DeviceSpec.BindFlags(fs)
}

// CSVList adapts a []string field to flag.Value as a comma-separated
// list; an empty argument clears the list.
type CSVList struct{ Dst *[]string }

func (v CSVList) String() string {
	if v.Dst == nil {
		return ""
	}
	return strings.Join(*v.Dst, ",")
}

func (v CSVList) Set(s string) error {
	if s == "" {
		*v.Dst = nil
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	*v.Dst = out
	return nil
}

// Normalize fills defaulted fields in place.
func (s *SweepSpec) Normalize() {
	if s.Seed == 0 {
		s.Seed = workload.DefaultSeed
	}
}

// Validate normalizes the spec and rejects unknown study names, unknown
// traces, and bad fault values, so the server can 400 before queueing.
func (s *SweepSpec) Validate() error {
	s.Normalize()
	if len(s.Sweeps) == 0 {
		return fmt.Errorf("no studies named; known studies: %s", strings.Join(experiments.StudyNames(), ", "))
	}
	if _, err := experiments.Select(s.Sweeps); err != nil {
		return err
	}
	reg := workload.DefaultRegistry()
	for _, tr := range s.Traces {
		if reg.Lookup(tr) == nil {
			return fmt.Errorf("unknown trace %q", tr)
		}
	}
	if _, err := FaultConfig(s.Faults, s.FaultSeed, s.FaultSeed != 0); err != nil {
		return err
	}
	if _, err := s.Backend(); err != nil {
		return err
	}
	if s.FromDevice != "" && s.Device != "" {
		return fmt.Errorf("from_device and device are mutually exclusive: the backend is sealed inside snapshot %q",
			s.FromDevice)
	}
	return nil
}

// Env builds the experiment environment the spec describes, bounded by
// ctx: seed, worker width, fault regime. Every sweep launched through the
// returned env aborts when ctx does.
func (s *SweepSpec) Env(ctx context.Context) (*experiments.Env, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	fc, err := FaultConfig(s.Faults, s.FaultSeed, s.FaultSeed != 0)
	if err != nil {
		return nil, err
	}
	env := experiments.NewEnv(s.Seed)
	env.Workers = s.Workers
	env.Faults = fc
	if err := s.DeviceSpec.ApplyEnv(env); err != nil {
		return nil, err
	}
	if s.FromDevice != "" {
		// Fetch the sealed bytes once; every fork decodes its own copy, so
		// concurrent sweep replays share nothing.
		sealed, err := s.DeviceSnapshot()
		if err != nil {
			return nil, err
		}
		id := s.FromDevice
		env.Fork = func() (storage.Device, error) {
			dev, _, err := core.RestoreSealed(id, bytes.NewReader(sealed))
			return dev, err
		}
	}
	env.Ctx = ctx
	return env, nil
}

// SweepResult is one named study's rendered tables — the unit of a sweep
// job's result. The emmcd server marshals a []SweepResult as the job
// payload and the coordinator decodes, merges, and re-marshals the same
// type, which makes "sharded equals single-process" a byte comparison.
type SweepResult struct {
	Name   string          `json:"name"`
	Tables []*report.Table `json:"tables"`
}

// Run executes every named study in order on an env bounded by ctx.
// defaultWorkers applies when the spec does not set its own worker width
// (the server passes its per-job pool width here). This is the one sweep
// execution path shared by the emmcd server's sweep jobs and the
// coordinator's degrade-to-local fallback, so a shard produces the same
// bytes whether it ran on a remote worker or in process.
func (s *SweepSpec) Run(ctx context.Context, defaultWorkers int, reg *telemetry.Registry, tracer *telemetry.Tracer) ([]SweepResult, error) {
	env, err := s.Env(ctx)
	if err != nil {
		return nil, err
	}
	if s.Workers == 0 {
		env.Workers = defaultWorkers
	}
	env.Telemetry = reg
	env.Tracer = tracer
	out := make([]SweepResult, 0, len(s.Sweeps))
	for _, name := range s.Sweeps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		study, _ := experiments.Lookup(name)
		outs, err := study.Run(env, s.Traces)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepResult{Name: name, Tables: experiments.Tables(outs)})
	}
	return out, nil
}
