// Package faults is the deterministic fault-injection plane of the modeled
// eMMC stack: program failures, erase failures, and uncorrectable read
// errors, injected with wear-dependent probabilities derived from the
// reliability model (internal/reliability) and drawn from a seeded
// internal/rng stream so replays stay bit-reproducible.
//
// The paper's endurance story (Fig. 9, and its reference [14] on wear vs.
// MLC reliability) argues that a scheme that erases more ages faster;
// internal/reliability turns wear into *expected* read-retry latency, and
// this package turns the same wear curve into *actual* failures the FTL and
// device must survive: bad-block retirement, re-programming of failed
// pages, and read-recovery relocation. Real eMMC controllers are defined by
// this machinery — factory bad blocks, grown bad blocks, read scrubbing.
//
// Determinism contract: an Injector is owned by exactly one device and its
// decisions are a pure function of (Config, sequence of queries). Replays
// are single-threaded per device and sweep jobs each build their own
// device, so identical seeds give identical fault sequences at any sweep
// parallelism. With Rate == 0 no random draw is ever made, so a rate-zero
// injector is behaviorally identical to no injector at all.
package faults

import (
	"encoding/binary"
	"fmt"
	"math"

	"emmcio/internal/reliability"
	"emmcio/internal/rng"
	"emmcio/internal/telemetry"
	"emmcio/internal/wire"
)

// Config parameterizes an Injector. It is pure data (JSON-friendly), so it
// can ride inside device configurations and snapshots; the Injector itself
// is reconstructed from it.
type Config struct {
	// Seed seeds the decision stream. Identical seeds reproduce identical
	// fault sequences for identical operation sequences.
	Seed uint64
	// Rate is the global probability multiplier. 0 disables injection
	// entirely (no draws, zero overhead beyond one nil/zero check).
	Rate float64
	// ProgramFailBase is the per-program failure probability of a fresh
	// (zero-wear) block; it grows with wear along the reliability model's
	// RBER curve. Zero selects the default 2e-5.
	ProgramFailBase float64
	// EraseFailBase is the per-erase failure probability of a fresh block,
	// growing like ProgramFailBase. Zero selects the default 1e-4.
	EraseFailBase float64
	// ReadFailScale scales the fraction of ECC-overflow reads whose retry
	// ladder also fails (the model's FailureProbability marks the overflow;
	// UncorrectableProbability adds the reads no retry can save). Zero
	// selects the default 0.02.
	ReadFailScale float64
	// Model supplies the wear curves. Nil selects reliability.Default().
	Model *reliability.Model
}

// Defaults for the zero-valued knobs.
const (
	DefaultProgramFailBase = 2e-5
	DefaultEraseFailBase   = 1e-4
	DefaultReadFailScale   = 0.02
)

// Validate reports unusable configurations.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate < 0 {
		return fmt.Errorf("faults: rate %v outside [0, +inf)", c.Rate)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"program-fail base", c.ProgramFailBase},
		{"erase-fail base", c.EraseFailBase},
		{"read-fail scale", c.ReadFailScale},
	} {
		if math.IsNaN(v.val) || v.val < 0 {
			return fmt.Errorf("faults: negative or NaN %s %v", v.name, v.val)
		}
	}
	if c.Model != nil {
		if err := c.Model.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Counts reports how many faults of each kind an injector has fired.
type Counts struct {
	Program int64
	Erase   int64
	Read    int64
}

// Total sums all kinds.
func (c Counts) Total() int64 { return c.Program + c.Erase + c.Read }

// memo caches one wear level's probability; wear changes far less often
// than operations happen (only erases move it), so the exp/Poisson math is
// paid per wear step, not per operation.
type memo struct {
	pe, p float64
	valid bool
}

func (m *memo) get(pe float64, f func(float64) float64) float64 {
	if !m.valid || m.pe != pe {
		m.pe, m.p, m.valid = pe, f(pe), true
	}
	return m.p
}

// Injector makes the fault decisions for one device. A nil *Injector is
// valid and never injects, so the stack pays one nil check when fault
// injection is off.
type Injector struct {
	cfg    Config
	model  *reliability.Model
	r      *rng.Rand
	draws  int64
	counts Counts

	progMemo, eraseMemo, readMemo memo

	tel *injTel
}

type injTel struct {
	program, erase, read *telemetry.Counter
}

// New builds an injector from the config. A nil config returns a nil
// injector (injection off).
func New(cfg *Config) (*Injector, error) {
	if cfg == nil {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{cfg: *cfg, model: cfg.Model}
	if in.model == nil {
		in.model = reliability.Default()
	}
	if in.cfg.ProgramFailBase == 0 {
		in.cfg.ProgramFailBase = DefaultProgramFailBase
	}
	if in.cfg.EraseFailBase == 0 {
		in.cfg.EraseFailBase = DefaultEraseFailBase
	}
	if in.cfg.ReadFailScale == 0 {
		in.cfg.ReadFailScale = DefaultReadFailScale
	}
	in.r = rng.New(cfg.Seed)
	return in, nil
}

// SetTelemetry attaches (or, with nil, detaches) the
// faults_injected_total{kind} counters.
func (in *Injector) SetTelemetry(reg *telemetry.Registry) {
	if in == nil {
		return
	}
	if reg == nil {
		in.tel = nil
		return
	}
	in.tel = &injTel{
		program: reg.Counter("faults_injected_total", telemetry.L("kind", "program")),
		erase:   reg.Counter("faults_injected_total", telemetry.L("kind", "erase")),
		read:    reg.Counter("faults_injected_total", telemetry.L("kind", "read")),
	}
}

// Enabled reports whether the injector can ever fire.
func (in *Injector) Enabled() bool { return in != nil && in.cfg.Rate > 0 }

// hit draws one decision with probability p. Probabilities outside (0, 1)
// never touch the RNG, keeping the draw count a pure function of the decided
// operations.
func (in *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	in.draws++
	return in.r.Bool(p)
}

// wearGrowth is the reliability model's RBER growth ratio at the given
// wear: 1.0 fresh, ~200x at rated endurance under the default model. It is
// the shared wear curve for program and erase failures.
func (in *Injector) wearGrowth(pe float64) float64 {
	return in.model.RBER(pe) / in.model.RBER(0)
}

// ProgramProbability returns the per-program failure probability at the
// given pool wear (average P/E cycles).
func (in *Injector) ProgramProbability(pe float64) float64 {
	return clamp01(in.cfg.Rate * in.cfg.ProgramFailBase * in.wearGrowth(pe))
}

// EraseProbability returns the per-erase failure probability at the given
// pool wear.
func (in *Injector) EraseProbability(pe float64) float64 {
	return clamp01(in.cfg.Rate * in.cfg.EraseFailBase * in.wearGrowth(pe))
}

// ReadProbability returns the per-page-read uncorrectable probability at
// the given pool wear: the reads nothing recovers
// (Model.UncorrectableProbability) plus the configured fraction of
// first-attempt ECC overflows (Model.FailureProbability) whose retry
// ladder fails in the field.
func (in *Injector) ReadProbability(pe float64) float64 {
	p := in.model.UncorrectableProbability(pe) +
		in.cfg.ReadFailScale*in.model.FailureProbability(pe)
	return clamp01(in.cfg.Rate * p)
}

func clamp01(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// ProgramFails decides whether the next program operation at the given
// pool wear fails. Nil or rate-zero injectors never fail and never draw.
func (in *Injector) ProgramFails(pe float64) bool {
	if !in.Enabled() {
		return false
	}
	if !in.hit(in.progMemo.get(pe, in.ProgramProbability)) {
		return false
	}
	in.counts.Program++
	if in.tel != nil {
		in.tel.program.Inc()
	}
	return true
}

// EraseFails decides whether the next erase operation fails.
func (in *Injector) EraseFails(pe float64) bool {
	if !in.Enabled() {
		return false
	}
	if !in.hit(in.eraseMemo.get(pe, in.EraseProbability)) {
		return false
	}
	in.counts.Erase++
	if in.tel != nil {
		in.tel.erase.Inc()
	}
	return true
}

// ReadUncorrectable decides whether the next page read is uncorrectable
// after the full retry ladder.
func (in *Injector) ReadUncorrectable(pe float64) bool {
	if !in.Enabled() {
		return false
	}
	if !in.hit(in.readMemo.get(pe, in.ReadProbability)) {
		return false
	}
	in.counts.Read++
	if in.tel != nil {
		in.tel.read.Inc()
	}
	return true
}

// RecoveryReads returns how many extra read attempts an uncorrectable read
// burned before the controller gave up and went to recovery — the model's
// full retry ladder.
func (in *Injector) RecoveryReads() int {
	if in == nil {
		return 0
	}
	return in.model.MaxRetries
}

// Counts returns the per-kind fault totals (zero for a nil injector).
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// Draws returns how many random decisions have been drawn over the
// injector's lifetime, including draws made before a snapshot it was
// restored from.
func (in *Injector) Draws() int64 {
	if in == nil {
		return 0
	}
	return in.draws
}

// AppendState appends the decision stream's position for a device
// snapshot: a presence byte, then (for a non-nil injector) the
// generator's four state words and the lifetime draw count.
func (in *Injector) AppendState(buf []byte) []byte {
	if in == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for _, w := range in.r.State() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return wire.AppendI64(buf, in.draws)
}

// ReadState resumes the stream at a position AppendState wrote. The
// presence byte must match whether in is nil, i.e. whether the device's
// configuration turns injection on.
func (in *Injector) ReadState(r *wire.Reader) {
	if present := r.U8(); present > 1 || (present == 1) != (in != nil) {
		r.Failf("fault stream state present=%d for a device with injection on=%v", present, in != nil)
		return
	}
	if in == nil {
		return
	}
	s, draws := [4]uint64{r.U64(), r.U64(), r.U64(), r.U64()}, r.I64()
	if r.Err() == nil && (draws < 0 || s == [4]uint64{}) {
		r.Failf("fault stream at draw %d with all-zero generator state=%v", draws, s == [4]uint64{})
	}
	in.r.SetState(s)
	in.draws = draws
}

// MaxSkip caps Skip: fast-forwarding costs one generator step per draw, so
// an archived count past it is refused rather than replayed.
const MaxSkip = 1 << 25

// Skip fast-forwards the decision stream by n draws, restoring a stream
// position recorded as a bare draw count (the first snapshot layout). It
// refuses a count outside [0, MaxSkip].
func (in *Injector) Skip(n int64) error {
	if n < 0 || n > MaxSkip {
		return fmt.Errorf("faults: cannot fast-forward %d draws (limit %d)", n, MaxSkip)
	}
	if in == nil {
		return nil
	}
	for i := int64(0); i < n; i++ {
		in.r.Float64()
	}
	in.draws += n
	return nil
}
