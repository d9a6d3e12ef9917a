package experiments

import (
	"cmp"
	"slices"

	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/report"
)

// CaseStudyRow is one trace's Fig. 8 + Fig. 9 outcome.
type CaseStudyRow struct {
	Name string
	// MRTMs indexes by scheme order: 4PS, 8PS, HPS.
	MRTMs [3]float64
	// Util indexes likewise (space utilization, Fig. 9).
	Util [3]float64
}

// MRTReductionVs4PS returns HPS's mean-response-time reduction (Fig. 8).
func (r CaseStudyRow) MRTReductionVs4PS() float64 {
	if r.MRTMs[0] == 0 {
		return 0
	}
	return 1 - r.MRTMs[2]/r.MRTMs[0]
}

// UtilGainVs8PS returns HPS's space-utilization gain over 8PS (Fig. 9).
func (r CaseStudyRow) UtilGainVs8PS() float64 {
	if r.Util[1] == 0 {
		return 0
	}
	return r.Util[2]/r.Util[1] - 1
}

// CaseStudyResult aggregates the §V experiments over the 18 traces.
type CaseStudyResult struct {
	Rows []CaseStudyRow
}

// CaseStudy replays the 18 individual traces on all three Table V schemes
// (Figs. 8 and 9). Traces are replayed on fresh ("brand new") devices with
// the RAM buffer disabled, as §V-B specifies. The 54 replays run on the
// env's worker pool; results are identical at any pool width.
func CaseStudy(env *Env) (CaseStudyResult, error) {
	return caseStudyOn(env, paper.IndividualApps)
}

func caseStudyOn(env *Env, names []string) (CaseStudyResult, error) {
	opt := core.CaseStudyOptions()
	jobs := make([]ReplayJob, 0, len(names)*len(core.Schemes))
	for _, name := range names {
		for _, s := range core.Schemes {
			jobs = append(jobs, ReplayJob{Trace: name, Scheme: s, Options: opt})
		}
	}
	results, err := env.Replays("casestudy", jobs)
	if err != nil {
		return CaseStudyResult{}, err
	}
	res := CaseStudyResult{Rows: make([]CaseStudyRow, len(names))}
	for i, name := range names {
		res.Rows[i].Name = name
		for si := range core.Schemes {
			m := results[i*len(core.Schemes)+si].Metrics
			res.Rows[i].MRTMs[si] = m.MeanResponseNs / 1e6
			res.Rows[i].Util[si] = m.SpaceUtilization
		}
	}
	return res, nil
}

// AverageReduction returns the mean Fig. 8 reduction across rows.
func (r CaseStudyResult) AverageReduction() float64 { return r.mean(CaseStudyRow.MRTReductionVs4PS) }

// AverageUtilGain returns the mean Fig. 9 gain across rows.
func (r CaseStudyResult) AverageUtilGain() float64 { return r.mean(CaseStudyRow.UtilGainVs8PS) }

func (r CaseStudyResult) mean(f func(CaseStudyRow) float64) float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, row := range r.Rows {
		sum += f(row)
	}
	return sum / float64(len(r.Rows))
}

// Best returns the first row with the largest Fig. 8 reduction.
func (r CaseStudyResult) Best() CaseStudyRow {
	return slices.MaxFunc(r.Rows, func(a, b CaseStudyRow) int { return cmp.Compare(a.MRTReductionVs4PS(), b.MRTReductionVs4PS()) })
}

// Worst returns the first row with the smallest Fig. 8 reduction.
func (r CaseStudyResult) Worst() CaseStudyRow {
	return slices.MinFunc(r.Rows, func(a, b CaseStudyRow) int { return cmp.Compare(a.MRTReductionVs4PS(), b.MRTReductionVs4PS()) })
}

// RenderFig8 renders the mean-response-time comparison.
func (r CaseStudyResult) RenderFig8() *report.Table {
	t := report.NewTable("Fig. 8: Mean response time by scheme",
		"Application", "4PS (ms)", "8PS (ms)", "HPS (ms)", "HPS vs 4PS")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			report.F(row.MRTMs[0], 2), report.F(row.MRTMs[1], 2), report.F(row.MRTMs[2], 2),
			"-"+report.Pct(row.MRTReductionVs4PS(), 1)+"%")
	}
	return t
}

// RenderFig9 renders the space-utilization comparison (normalized to 4PS,
// which is always 1.0; HPS matches it by construction).
func (r CaseStudyResult) RenderFig9() *report.Table {
	t := report.NewTable("Fig. 9: Space utilization (normalized to 4PS)",
		"Application", "8PS", "HPS", "HPS vs 8PS")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			report.F(row.Util[1]/row.Util[0], 3), report.F(row.Util[2]/row.Util[0], 3),
			"+"+report.Pct(row.UtilGainVs8PS(), 1)+"%")
	}
	return t
}

// Fig8Figure renders the mean-response-time comparison as grouped bars on a
// log scale (the paper splits Fig. 8 into linear and log panels; one log
// panel covers both groups).
func (r CaseStudyResult) Fig8Figure() *report.Figure {
	f := &report.Figure{
		Title:  "Fig. 8: Mean response time by scheme (log scale)",
		YLabel: "MRT (ms)",
		LogY:   true,
	}
	series := []report.Series{{Name: "4PS"}, {Name: "8PS"}, {Name: "HPS"}}
	for _, row := range r.Rows {
		f.XTicks = append(f.XTicks, row.Name)
		for i := range series {
			series[i].Values = append(series[i].Values, row.MRTMs[i])
		}
	}
	f.Series = series
	return f
}

// Fig9Figure renders space utilization normalized to 4PS.
func (r CaseStudyResult) Fig9Figure() *report.Figure {
	f := &report.Figure{
		Title:  "Fig. 9: Space utilization (normalized to 4PS)",
		YLabel: "utilization",
	}
	series := []report.Series{{Name: "8PS"}, {Name: "HPS"}}
	for _, row := range r.Rows {
		f.XTicks = append(f.XTicks, row.Name)
		series[0].Values = append(series[0].Values, row.Util[1]/row.Util[0])
		series[1].Values = append(series[1].Values, row.Util[2]/row.Util[0])
	}
	f.Series = series
	return f
}
