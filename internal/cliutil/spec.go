package cliutil

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/faults"
	"emmcio/internal/ftl"
	"emmcio/internal/runner"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// ReplaySpec is the one description of "replay this workload on these
// devices" shared by the emmcsim flags and the emmcd server's POST bodies.
// The zero value means "all schemes, §V case-study device, default seed";
// Normalize fills those defaults in explicitly.
type ReplaySpec struct {
	// App names a built-in application workload (Tables I/II).
	App string `json:"app"`
	// Seed drives trace generation (0 = the repository's canonical seed).
	Seed uint64 `json:"seed,omitempty"`
	// Scheme is 4PS, 8PS, HPS, or all.
	Scheme string `json:"scheme,omitempty"`
	// GC is the collection policy: foreground or idle.
	GC string `json:"gc,omitempty"`
	// Wear is the leveling policy: round-robin, none, or static.
	Wear string `json:"wear,omitempty"`
	// BufferMB sizes the device RAM buffer (0 = disabled, as in the paper).
	BufferMB int `json:"buffer_mb,omitempty"`
	// Power enables the low-power mode model.
	Power bool `json:"power,omitempty"`
	// Sessions replays the trace N times back to back (device ages).
	Sessions int `json:"sessions,omitempty"`
	// Scale compresses arrival times by this factor (<1 raises the rate).
	Scale float64 `json:"scale,omitempty"`
	// Shrink divides per-plane block count (GC-pressure studies).
	Shrink int `json:"shrink,omitempty"`
	// Faults is the fault-injection rate multiplier (0 = perfect hardware).
	Faults float64 `json:"faults,omitempty"`
	// FaultSeed is the fault-injection decision seed (requires Faults > 0;
	// 0 in JSON means unset).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// FromDevice forks the archived device snapshot with this id instead of
	// building a fresh device: the replay restores the aged state (backend,
	// wear, injector position) and resumes on top of it. Requires a single
	// concrete scheme — the one the device was aged under — and a device
	// source (SetDeviceSource). Faults > 0 replaces the archived fault
	// regime with a fresh injector; 0 keeps the archived one.
	FromDevice string `json:"from_device,omitempty"`

	// DeviceSpec selects the storage backend (-device / "device") and its
	// UFS-only sizing knobs; its fields promote into the JSON body.
	DeviceSpec

	fs     *flag.FlagSet
	source DeviceSource
}

// SetDeviceSource attaches the snapshot source FromDevice ids resolve
// against. The source does not travel with the spec's JSON form — each
// process that runs from_device jobs attaches its own store.
func (s *ReplaySpec) SetDeviceSource(src DeviceSource) { s.source = src }

// BindFlags registers every spec field as its CLI flag on fs. The flag
// names and defaults are the public interface of cmd/emmcsim; the JSON
// tags above are the public interface of emmcd — both read and write the
// same fields.
func (s *ReplaySpec) BindFlags(fs *flag.FlagSet) {
	s.fs = fs
	fs.StringVar(&s.App, "app", "", "built-in application workload to replay")
	fs.Uint64Var(&s.Seed, "seed", workload.DefaultSeed, "workload generation seed")
	fs.StringVar(&s.Scheme, "scheme", "all", "4PS, 8PS, HPS, or all")
	fs.StringVar(&s.GC, "gc", "foreground", "GC policy: foreground or idle")
	fs.StringVar(&s.Wear, "wear", "round-robin", "wear leveling: round-robin, none, or static")
	fs.IntVar(&s.BufferMB, "buffer", 0, "device RAM buffer size in MB (0 = disabled, as in the paper)")
	fs.BoolVar(&s.Power, "power", false, "enable the low-power mode model")
	fs.IntVar(&s.Sessions, "sessions", 1, "replay the trace N times back to back (device ages)")
	fs.Float64Var(&s.Scale, "scale", 1.0, "compress arrival times by this factor (<1 raises the rate)")
	fs.IntVar(&s.Shrink, "shrink", 0, "divide per-plane block count (GC-pressure studies)")
	fs.Float64Var(&s.Faults, "faults", 0, "fault-injection rate multiplier (0 = perfect hardware)")
	fs.Uint64Var(&s.FaultSeed, "fault-seed", 1, "fault-injection decision seed (requires -faults > 0)")
	fs.StringVar(&s.FromDevice, "from-device", "", "fork this archived device snapshot instead of building a fresh device")
	s.DeviceSpec.BindFlags(fs)
}

// Normalize fills defaulted fields in place, so a JSON body that omits
// them behaves exactly like a CLI invocation that leaves the flags at
// their defaults. It is idempotent; call it once before fanning a spec
// out to concurrent replay jobs.
func (s *ReplaySpec) Normalize() {
	if s.Seed == 0 {
		s.Seed = workload.DefaultSeed
	}
	if s.Scheme == "" {
		s.Scheme = "all"
	}
	if s.GC == "" {
		s.GC = "foreground"
	}
	if s.Wear == "" {
		s.Wear = "round-robin"
	}
	if s.Sessions <= 0 {
		s.Sessions = 1
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
}

// Schemes resolves the scheme selector into the Table V scheme list.
func (s *ReplaySpec) Schemes() ([]core.Scheme, error) {
	switch strings.ToUpper(s.Scheme) {
	case "", "ALL":
		return core.Schemes, nil
	case "4PS":
		return []core.Scheme{core.Scheme4PS}, nil
	case "8PS":
		return []core.Scheme{core.Scheme8PS}, nil
	case "HPS":
		return []core.Scheme{core.SchemeHPS}, nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", s.Scheme)
	}
}

// FaultConfig validates the spec's fault fields. Bound to flags, "seed
// set" means the -fault-seed flag was passed; decoded from JSON it means
// the field was non-zero.
func (s *ReplaySpec) FaultConfig() (*faults.Config, error) {
	seedSet := s.FaultSeed != 0
	if s.fs != nil {
		seedSet = false
		s.fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "fault-seed" {
				seedSet = true
			}
		})
	}
	return FaultConfig(s.Faults, s.FaultSeed, seedSet)
}

// DeviceOptions builds the device configuration: the §V case-study
// defaults with the spec's overrides applied.
func (s *ReplaySpec) DeviceOptions() (core.Options, error) {
	opt := core.CaseStudyOptions()
	opt.PowerSaving = s.Power
	opt.RAMBufferBytes = int64(s.BufferMB) << 20
	opt.ScaleBlocks = s.Shrink
	fc, err := s.FaultConfig()
	if err != nil {
		return core.Options{}, err
	}
	opt.Faults = fc
	switch s.GC {
	case "", "foreground":
		opt.GCPolicy = emmc.GCForeground
	case "idle":
		opt.GCPolicy = emmc.GCIdle
	default:
		return core.Options{}, fmt.Errorf("unknown GC policy %q", s.GC)
	}
	switch s.Wear {
	case "", "round-robin":
		opt.Wear = ftl.WearRoundRobin
	case "none":
		opt.Wear = ftl.WearNone
	case "static":
		opt.Wear = ftl.WearStatic
	default:
		return core.Options{}, fmt.Errorf("unknown wear policy %q", s.Wear)
	}
	if err := s.DeviceSpec.Apply(&opt); err != nil {
		return core.Options{}, err
	}
	return opt, nil
}

// Profile resolves the spec's application against reg (nil = the default
// registry).
func (s *ReplaySpec) Profile(reg *workload.Registry) (*workload.Profile, error) {
	if s.App == "" {
		return nil, fmt.Errorf("no application named; set app")
	}
	if reg == nil {
		reg = workload.DefaultRegistry()
	}
	p := reg.Lookup(s.App)
	if p == nil {
		return nil, fmt.Errorf("unknown application %q", s.App)
	}
	return p, nil
}

// maxStretch bounds scale × sessions, the factor by which a replay spec
// lengthens its workload's timeline.
const maxStretch = 1e4

// Validate normalizes the spec and rejects anything a replay would choke
// on — unknown application, scheme, GC or wear policy, bad fault or scale
// values — so the server can 400 before a job is ever queued.
func (s *ReplaySpec) Validate(reg *workload.Registry) error {
	s.Normalize()
	if _, err := s.Profile(reg); err != nil {
		return err
	}
	if _, err := s.Schemes(); err != nil {
		return err
	}
	if _, err := s.DeviceOptions(); err != nil {
		return err
	}
	if s.Scale <= 0 {
		return fmt.Errorf("scale must be > 0, got %v", s.Scale)
	}
	// Arrivals are int64 nanoseconds. The longest built-in session (Idle,
	// ~8 h) stretched and repeated by this much stays ~30x inside that
	// clock; past it, session repetition overflows and panics.
	if s.Scale*float64(s.Sessions) > maxStretch {
		return fmt.Errorf("scale × sessions must be <= %g, got %v × %d", float64(maxStretch), s.Scale, s.Sessions)
	}
	if s.Shrink < 0 {
		return fmt.Errorf("shrink must be >= 0, got %d", s.Shrink)
	}
	if s.FromDevice != "" {
		if schemes, _ := s.Schemes(); len(schemes) != 1 {
			return fmt.Errorf("from_device %q requires one concrete scheme (the one the device was aged under), got %q",
				s.FromDevice, s.Scheme)
		}
		if s.Device != "" {
			return fmt.Errorf("from_device and device are mutually exclusive: the backend is sealed inside snapshot %q",
				s.FromDevice)
		}
	}
	return nil
}

// PrepareStream applies the spec's stream transforms — arrival scaling,
// session repetition, timestamp clearing — in the same order the CLI
// always has, so CLI and server replays see identical request streams.
func (s *ReplaySpec) PrepareStream(st trace.Stream) trace.Stream {
	if s.Scale != 0 && s.Scale != 1.0 {
		st = trace.ScaleStream(st, s.Scale)
	}
	if s.Sessions > 1 {
		st = trace.Repeat(st, s.Sessions, 1_000_000_000)
	}
	return trace.ClearStream(st)
}

// Replay runs the spec's workload on one scheme: fresh stream, fresh (or
// forked, with FromDevice) device, streaming replay bounded by ctx. The
// spec must be normalized. sink, when non-nil, observes every completed
// request.
func (s *ReplaySpec) Replay(ctx context.Context, scheme core.Scheme, reg *telemetry.Registry, tracer *telemetry.Tracer, sink func(trace.Request) error) (core.Metrics, error) {
	p, err := s.Profile(nil)
	if err != nil {
		return core.Metrics{}, err
	}
	var dev storage.Device
	if s.FromDevice != "" {
		dev, _, err = ForkDevice(s.source, s.FromDevice)
		if err != nil {
			return core.Metrics{}, err
		}
		fc, err := s.FaultConfig()
		if err != nil {
			return core.Metrics{}, err
		}
		if fc != nil {
			if err := dev.SetFaultConfig(fc); err != nil {
				return core.Metrics{}, err
			}
		}
	} else {
		opt, err := s.DeviceOptions()
		if err != nil {
			return core.Metrics{}, err
		}
		dev, err = core.NewDevice(scheme, opt)
		if err != nil {
			return core.Metrics{}, err
		}
	}
	st := s.PrepareStream(p.Stream(s.Seed))
	if s.FromDevice != "" {
		// Resume after the archived history: the fork's clock is already at
		// its last activity, so the new session starts an idle gap later —
		// the same shift emmcsim's -load path applies.
		st = core.Resume(dev, st)
	}
	return core.Replay(ctx, dev, scheme, st, core.ReplayOpts{Registry: reg, Tracer: tracer, Sink: sink})
}

// SchemeResult pairs one scheme with its replay metrics; it is the unit of
// both emmcsim's -json output and the server's replay-job results, which
// makes "server equals CLI" a byte comparison.
type SchemeResult struct {
	Scheme  string       `json:"scheme"`
	Metrics core.Metrics `json:"metrics"`
}

// Run replays the spec on every selected scheme on a worker pool of the
// given width and returns results in scheme order — bit-identical at any
// width, and bit-identical between the CLI and the server, since both end
// at the same stream, options, and replay loop.
func (s *ReplaySpec) Run(ctx context.Context, workers int, reg *telemetry.Registry, tracer *telemetry.Tracer) ([]SchemeResult, error) {
	s.Normalize()
	if err := s.Validate(nil); err != nil {
		return nil, err
	}
	schemes, err := s.Schemes()
	if err != nil {
		return nil, err
	}
	metrics, err := runner.MapContext(ctx, runner.New(workers).Observe(reg), "replay", schemes,
		func(ctx context.Context, _ int, sc core.Scheme) (core.Metrics, error) {
			return s.Replay(ctx, sc, reg, tracer, nil)
		})
	if err != nil {
		return nil, err
	}
	out := make([]SchemeResult, len(schemes))
	for i, sc := range schemes {
		out[i] = SchemeResult{Scheme: sc.String(), Metrics: metrics[i]}
	}
	return out, nil
}
