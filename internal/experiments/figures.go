package experiments

import (
	"context"
	"fmt"

	"emmcio/internal/analysis"
	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/runner"
	"emmcio/internal/stats"
	"emmcio/internal/trace"
)

// Fig3Result is the throughput-vs-request-size sweep on the measured device.
type Fig3Result struct {
	Points []core.ThroughputPoint
}

// Fig3 reproduces the Fig. 3 microbenchmark: sweep request sizes from 4 KB
// to 16 MB on the measured-device model (reads stop at 256 KB, the largest
// read in any trace), issuing reqsPerPoint back-to-back requests per point.
// The per-size points run on the env's worker pool.
func Fig3(env *Env, reqsPerPoint int) (Fig3Result, error) {
	timing := MeasuredDeviceTiming()
	pts, err := core.ThroughputSweep(env.context(), env.Runner(), core.Scheme4PS,
		core.Options{Timing: &timing}, core.Fig3Sizes(), reqsPerPoint)
	if err != nil {
		return Fig3Result{}, err
	}
	return Fig3Result{Points: pts}, nil
}

// Render returns the Fig. 3 series table.
func (r Fig3Result) Render() *report.Table {
	t := report.NewTable("Fig. 3: Throughput vs request size (measured-device model)",
		"Size", "Read MB/s", "Write MB/s")
	for _, p := range r.Points {
		read := "-"
		if p.ReadMBs > 0 {
			read = report.F(p.ReadMBs, 2)
		}
		t.AddRow(sizeLabel(p.SizeBytes), read, report.F(p.WriteMBs, 2))
	}
	return t
}

func sizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%dMB", bytes>>20)
	default:
		return fmt.Sprintf("%dKB", bytes>>10)
	}
}

// DistResult carries per-trace histograms for Figs. 4–6 (and Fig. 7's three
// panels for the combo traces).
type DistResult struct {
	Names []string
	Dists []analysis.Distributions
}

// Fig4 builds the request-size distributions of the 18 individual traces.
func Fig4(env *Env) (DistResult, error) {
	return distributions(env, paper.IndividualApps)
}

// Fig5 builds the response-time distributions of the 18 individual traces
// (requires replay on the measured device).
func Fig5(env *Env) (DistResult, error) {
	return replayedDistributions(env, paper.IndividualApps)
}

// Fig6 builds the inter-arrival distributions of the 18 individual traces.
func Fig6(env *Env) (DistResult, error) {
	return distributions(env, paper.IndividualApps)
}

// Fig7 builds all three distributions for the 7 combo traces.
func Fig7(env *Env) (DistResult, error) {
	return replayedDistributions(env, paper.ComboApps)
}

// distributions computes per-trace histograms without replay, streaming
// each generated trace through an online accumulator on the env's worker
// pool (generation dominates). Env streams never fail, so the error is the
// env's context ending the sweep.
func distributions(env *Env, names []string) (DistResult, error) {
	dists, err := runner.MapContext(env.context(), env.Runner(), "distributions", names,
		func(ctx context.Context, _ int, name string) (analysis.Distributions, error) {
			acc, err := analysis.AccumulateStream(trace.WithContext(ctx, env.Stream(name)))
			if err != nil {
				return analysis.Distributions{}, err
			}
			return acc.Dists(), nil
		})
	if err != nil {
		return DistResult{}, err
	}
	return DistResult{Names: names, Dists: dists}, nil
}

// replayedDistributions replays each trace through the §II-C collection
// path on the measured device first, so response times are populated; the
// histograms accumulate online during the replay, nothing is materialized.
func replayedDistributions(env *Env, names []string) (DistResult, error) {
	jobs := make([]ReplayJob, len(names))
	for i, name := range names {
		jobs[i] = ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: MeasuredDeviceOptions(),
			Collect: true, WantStats: true}
	}
	results, err := env.Replays("distributions-replayed", jobs)
	if err != nil {
		return DistResult{}, err
	}
	res := DistResult{Names: names, Dists: make([]analysis.Distributions, len(names))}
	for i := range results {
		res.Dists[i] = results[i].Stats.Dists()
	}
	return res, nil
}

// The Figs. 5–7 bucket labels; sizes label their buckets from the bounds.
var (
	responseLabels     = []string{"<=2ms", "<=4ms", "<=8ms", "<=16ms", "<=32ms", "<=64ms", "<=128ms", ">128ms"}
	interarrivalLabels = []string{"<=1ms", "<=2ms", "<=4ms", "<=8ms", "<=16ms", ">16ms"}
)

func sizeLabels() []string { return stats.NewHistogram(stats.SizeBounds()).Labels(1024, "KB") }

func sizeHist(d analysis.Distributions) *stats.Histogram         { return d.Size }
func responseHist(d analysis.Distributions) *stats.Histogram     { return d.Response }
func interarrivalHist(d analysis.Distributions) *stats.Histogram { return d.Interarrival }

// render tabulates one histogram per trace as bucket fractions.
func (r DistResult) render(title string, labels []string, hist func(analysis.Distributions) *stats.Histogram) *report.Table {
	t := report.NewTable(title, append([]string{"Application"}, labels...)...)
	for i, name := range r.Names {
		row := []string{name}
		for _, f := range hist(r.Dists[i]).Fractions() {
			row = append(row, report.F(f, 3))
		}
		t.AddRow(row...)
	}
	return t
}

// figure plots one histogram per trace as stacked bars.
func (r DistResult) figure(title, yLabel string, labels []string, hist func(analysis.Distributions) *stats.Histogram) *report.Figure {
	f := &report.Figure{Title: title, YLabel: yLabel, XTicks: r.Names}
	for bi, label := range labels {
		s := report.Series{Name: label}
		for _, d := range r.Dists {
			s.Values = append(s.Values, hist(d).Fractions()[bi])
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// RenderSizes renders the Fig. 4 / Fig. 7a panel.
func (r DistResult) RenderSizes() *report.Table {
	return r.render("Request size distributions (fractions)", sizeLabels(), sizeHist)
}

// RenderResponses renders the Fig. 5 / Fig. 7b panel.
func (r DistResult) RenderResponses() *report.Table {
	return r.render("Response time distributions (fractions)", responseLabels, responseHist)
}

// RenderInterarrivals renders the Fig. 6 / Fig. 7c panel.
func (r DistResult) RenderInterarrivals() *report.Table {
	return r.render("Inter-arrival time distributions (fractions)", interarrivalLabels, interarrivalHist)
}

// Figure renders Fig. 3 as a line chart.
func (r Fig3Result) Figure() *report.Figure {
	f := &report.Figure{
		Title:  "Fig. 3: Throughput vs request size",
		XLabel: "request size",
		YLabel: "MB/s",
	}
	read := report.Series{Name: "Read"}
	write := report.Series{Name: "Write"}
	for _, p := range r.Points {
		f.XTicks = append(f.XTicks, sizeLabel(p.SizeBytes))
		read.Values = append(read.Values, p.ReadMBs)
		write.Values = append(write.Values, p.WriteMBs)
	}
	f.Series = []report.Series{read, write}
	return f
}

// SizeFigure renders the request-size distributions as stacked bars
// (Fig. 4 / Fig. 7a).
func (r DistResult) SizeFigure(title string) *report.Figure {
	return r.figure(title, "fraction of requests", sizeLabels(), sizeHist)
}

// ResponseFigure renders the response-time distributions (Fig. 5 / 7b).
func (r DistResult) ResponseFigure(title string) *report.Figure {
	return r.figure(title, "fraction of requests", responseLabels, responseHist)
}

// InterarrivalFigure renders the inter-arrival distributions (Fig. 6 / 7c).
func (r DistResult) InterarrivalFigure(title string) *report.Figure {
	return r.figure(title, "fraction of gaps", interarrivalLabels, interarrivalHist)
}
