package workload

import (
	"fmt"
	"sort"

	"emmcio/internal/rng"
	"emmcio/internal/trace"
)

// Profile describes one application's I/O behaviour with the calibration
// targets taken from the paper's Tables III/IV and Figs. 4/6.
type Profile struct {
	Name string

	// Targets from Table III / Table IV.
	DurationSec float64 // recording duration
	Requests    int     // number of requests to generate
	WriteFrac   float64 // fraction of write requests
	MeanReadKB  float64 // mean read request size
	MeanWriteKB float64 // mean write request size
	MaxKB       int     // largest request in the trace
	Spatial     float64 // sequential-successor fraction target
	Temporal    float64 // address re-hit fraction target

	// P4 is the single-page (4 KB) request fraction (Fig. 4).
	P4 float64

	// Inter-arrival mixture (Fig. 6): with probability BurstFrac a gap is
	// exponential with mean BurstMeanMs; otherwise it comes from the idle
	// component whose mean is solved so the trace spans DurationSec.
	BurstFrac   float64
	BurstMeanMs float64

	// Optional explicit size mixtures overriding the automatic builder
	// (used for apps with distinctive Fig. 4 shapes such as Movie).
	ReadMix  []SizePoint
	WriteMix []SizePoint
}

// Validate reports structurally impossible profiles.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile without name")
	case p.Requests <= 0:
		return fmt.Errorf("workload: %s: non-positive request count", p.Name)
	case p.DurationSec <= 0:
		return fmt.Errorf("workload: %s: non-positive duration", p.Name)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("workload: %s: write fraction %v outside [0,1]", p.Name, p.WriteFrac)
	case p.P4 < 0 || p.P4 >= 1:
		return fmt.Errorf("workload: %s: p4 %v outside [0,1)", p.Name, p.P4)
	case p.MaxKB < 4:
		return fmt.Errorf("workload: %s: max size below one page", p.Name)
	case p.BurstFrac < 0 || p.BurstFrac >= 1:
		return fmt.Errorf("workload: %s: burst fraction %v outside [0,1)", p.Name, p.BurstFrac)
	}
	return nil
}

const nsPerSec = int64(1_000_000_000)
const nsPerMs = int64(1_000_000)

// Generate synthesizes the trace for this profile. The same (profile, seed)
// pair always produces the identical trace.
//
// Temporal locality needs a closed-loop step: a re-hit (temporal pick) that
// lands inside an earlier sequential run makes the following sequential
// continuations re-hit too, inflating the measured value above the dial.
// Generate therefore runs one calibration pass, measures the overshoot, and
// regenerates with a corrected dial — still fully deterministic.
func (p *Profile) Generate(seed uint64) *trace.Trace {
	t := p.generateOnce(seed, p.Temporal)
	measured := measureTemporal(t)
	adj := p.Temporal - (measured - p.Temporal)
	if adj < 0 {
		adj = 0
	}
	return p.generateOnce(seed, adj)
}

// Stream returns the profile's generated trace as a lazily materialized
// trace.Stream: nothing is generated until the first pull, each call owns a
// private copy (no shared cache entry to clone), and the memory is
// reclaimed when the caller drops the stream. Generation itself is
// inherently whole-trace — the temporal-locality calibration is a two-pass
// fit over the finished request sequence — so streaming generation means
// deferring and privatizing that allocation, not avoiding it.
func (p *Profile) Stream(seed uint64) trace.Stream {
	return trace.Generated(p.Name, func() *trace.Trace { return p.Generate(seed) })
}

// measureTemporal is the generator's calibration probe: the paper's
// temporal-locality definition (§III-C), the same one
// analysis.Accumulator.TemporalLocality reports, computed here over the
// draft trace without building the rest of the characterization.
func measureTemporal(t *trace.Trace) float64 {
	if len(t.Reqs) == 0 {
		return 0
	}
	seen := make(map[uint64]struct{}, len(t.Reqs))
	hits := 0
	for i := range t.Reqs {
		page := t.Reqs[i].LBA / trace.SectorsPerPage
		if _, ok := seen[page]; ok {
			hits++
		} else {
			seen[page] = struct{}{}
		}
	}
	return float64(hits) / float64(len(t.Reqs))
}

func (p *Profile) generateOnce(seed uint64, temporalDial float64) *trace.Trace {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	// Derive a per-profile stream so different apps with the same seed are
	// independent, but a given app is stable across the roster.
	h := seed
	for _, c := range []byte(p.Name) {
		h = h*1099511628211 + uint64(c)
	}
	r := rng.New(h)

	readMix := p.readSampler()
	writeMix := p.writeSampler()

	n := p.Requests
	t := &trace.Trace{Name: p.Name, Reqs: make([]trace.Request, 0, n)}

	// Inter-arrival gaps: burst + idle mixture, then the idle component is
	// rescaled so the trace spans exactly DurationSec. Rescaling only the
	// long gaps preserves the sub-16 ms bucket shape of Fig. 6.
	gaps, isIdle := p.gaps(r, n)

	addr := newAddrGen(r.Fork(), p.Spatial, temporalDial)

	var at int64
	for i := 0; i < n; i++ {
		at += gaps[i]
		var req trace.Request
		req.Arrival = at
		if r.Bool(p.WriteFrac) {
			req.Op = trace.Write
			req.Size = uint32(writeMix.Sample(r))
		} else {
			req.Op = trace.Read
			req.Size = uint32(readMix.Sample(r))
		}
		req.LBA = addr.next(req.Pages())
		t.Reqs = append(t.Reqs, req)
	}
	_ = isIdle

	// Inject the trace's maximum-size request at a deterministic position so
	// Table III's Max Size column is reproduced. Reads never exceed 256 KB in
	// the collected traces, so an over-256 KB maximum must be a write
	// (it is the driver-level packing command that produces these giants).
	// Round the published maximum up to a whole number of pages: Table III
	// lists one value (GoogleMaps' 8,174 KB) that is not 4 KB-aligned,
	// presumably truncated in typesetting.
	maxIdx := n / 2
	mreq := &t.Reqs[maxIdx]
	mreq.Size = uint32((p.MaxKB+3)/4*4) * 1024
	if p.MaxKB > maxReadKB || p.WriteFrac >= 0.5 {
		mreq.Op = trace.Write
	} else {
		mreq.Op = trace.Read
	}
	mreq.LBA = addr.next(mreq.Pages())

	return t
}

func (p *Profile) readSampler() *rng.Weighted {
	if p.ReadMix != nil {
		return explicitMix(p.ReadMix)
	}
	maxKB := p.MaxKB
	if maxKB > maxReadKB {
		maxKB = maxReadKB
	}
	return buildMix(p.P4, p.MeanReadKB, maxKB)
}

func (p *Profile) writeSampler() *rng.Weighted {
	if p.WriteMix != nil {
		return explicitMix(p.WriteMix)
	}
	return buildMix(p.P4, p.MeanWriteKB, p.MaxKB)
}

// gaps draws n inter-arrival gaps (the first is the offset of the first
// request) and rescales the idle component so the sum is exactly
// DurationSec. Returns the gaps and a parallel idle-component mask.
func (p *Profile) gaps(r *rng.Rand, n int) ([]int64, []bool) {
	total := int64(p.DurationSec * float64(nsPerSec))
	meanGap := float64(total) / float64(n)
	burstMean := p.BurstMeanMs * float64(nsPerMs)

	bf := p.BurstFrac
	idleMean := (meanGap - bf*burstMean) / (1 - bf)
	degenerate := idleMean <= burstMean
	if degenerate {
		// The requested burst component already exceeds the trace's mean
		// gap; fall back to a single exponential component.
		bf = 0
		idleMean = meanGap
	}

	gaps := make([]int64, n)
	isIdle := make([]bool, n)
	var burstSum, idleSum int64
	for i := 0; i < n; i++ {
		if r.Bool(bf) {
			g := int64(r.Exp(burstMean))
			if g < 1 {
				g = 1
			}
			gaps[i] = g
			burstSum += g
		} else {
			g := int64(r.Exp(idleMean))
			if g < 1 {
				g = 1
			}
			gaps[i] = g
			isIdle[i] = true
			idleSum += g
		}
	}
	// Rescale idle gaps so the total equals the target duration.
	if idleSum > 0 && total > burstSum {
		scale := float64(total-burstSum) / float64(idleSum)
		for i := range gaps {
			if isIdle[i] {
				gaps[i] = int64(float64(gaps[i]) * scale)
				if gaps[i] < 1 {
					gaps[i] = 1
				}
			}
		}
	}
	return gaps, isIdle
}

// Registry is an ordered collection of profiles.
type Registry struct {
	byName map[string]*Profile
	order  []string
}

// NewRegistry builds a registry from the given profiles, preserving order.
func NewRegistry(profiles ...*Profile) *Registry {
	reg := &Registry{byName: make(map[string]*Profile, len(profiles))}
	for _, p := range profiles {
		if _, dup := reg.byName[p.Name]; dup {
			panic("workload: duplicate profile " + p.Name)
		}
		reg.byName[p.Name] = p
		reg.order = append(reg.order, p.Name)
	}
	return reg
}

// Lookup returns the named profile, or nil.
func (reg *Registry) Lookup(name string) *Profile { return reg.byName[name] }

// Names returns profile names in registration order.
func (reg *Registry) Names() []string {
	out := make([]string, len(reg.order))
	copy(out, reg.order)
	return out
}

// SortedNames returns profile names alphabetically (for stable iteration in
// tools that do not care about paper order).
func (reg *Registry) SortedNames() []string {
	out := reg.Names()
	sort.Strings(out)
	return out
}
