package experiments

import (
	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/reliability"
	"emmcio/internal/report"
	"emmcio/internal/storage"
)

// AgingPoint is one wear level of the read-latency aging curve.
type AgingPoint struct {
	// LifeFraction is consumed endurance (1.0 = the rated P/E budget).
	LifeFraction float64
	// MRTMs is the replayed mean response time at this wear.
	MRTMs float64
	// RetryFactor is the model's expected read-attempt multiplier.
	RetryFactor float64
	// FailureProb is the first-attempt ECC-overflow probability.
	FailureProb float64
}

// Aging replays a read-heavy trace on devices pre-aged to increasing wear
// levels: as the raw bit error rate climbs, ECC retries stretch read
// latency — the performance face of the lifetime argument behind Fig. 9
// (a scheme that erases more reaches this regime sooner).
func Aging(env *Env, name string, lifeFractions []float64) ([]AgingPoint, error) {
	if name == "" {
		name = paper.Movie // the most read-heavy trace (94.6% reads)
	}
	if len(lifeFractions) == 0 {
		lifeFractions = []float64{0, 0.5, 1.0, 1.25, 1.5}
	}
	model := reliability.Default() // deterministic expected values; safe to share
	jobs := make([]ReplayJob, len(lifeFractions))
	for i, lf := range lifeFractions {
		jobs[i] = ReplayJob{
			Trace:  name,
			Scheme: core.Scheme4PS,
			Device: func() (storage.Device, error) {
				opt := core.CaseStudyOptions()
				opt.Reliability = model
				// A fork of the archived aged snapshot, when the env has
				// one, is the base instead of fresh flash per wear level.
				dev, err := env.device(core.Scheme4PS, opt)
				if err != nil {
					return nil, err
				}
				// Pre-age pool 0: average PE = lifeFraction × endurance.
				blocks := int64(dev.Wear(0).Blocks)
				dev.AddArtificialWear(0, int64(lf*model.Endurance*float64(blocks)))
				return dev, nil
			},
		}
	}
	results, err := env.Replays("aging", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]AgingPoint, len(lifeFractions))
	for i, lf := range lifeFractions {
		pe := lf * model.Endurance
		out[i] = AgingPoint{
			LifeFraction: lf,
			MRTMs:        results[i].Metrics.MeanResponseNs / 1e6,
			RetryFactor:  model.ReadLatencyFactor(pe),
			FailureProb:  model.FailureProbability(pe),
		}
	}
	return out, nil
}

// RenderAging renders the curve.
func RenderAging(name string, pts []AgingPoint) *report.Table {
	t := report.NewTable("Aging: read-retry latency as endurance is consumed ("+name+", 4PS)",
		"Life consumed", "MRT (ms)", "Read attempts", "ECC overflow prob")
	for _, p := range pts {
		t.AddRow(report.Pct(p.LifeFraction, 0)+"%", report.F(p.MRTMs, 2),
			report.F(p.RetryFactor, 3), report.F(p.FailureProb, 6))
	}
	return t
}
