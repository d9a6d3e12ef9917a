package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"emmcio/internal/paper"
	"emmcio/internal/report"
)

// Output is one rendered result of a study: a table, plus two things only
// the experiments CLI uses. Server sweeps keep just the tables (Tables), so
// a sharded sweep merges to the same bytes as an unsharded one.
type Output struct {
	Table *report.Table
	// Note, when non-empty, is a summary line printed after the table.
	Note string
	// SVG, when non-nil, writes the table's figure; SVGName is its file.
	SVGName string
	SVG     func(io.Writer) error
}

// Study is one named unit of the paper's results: a table, a figure, a
// characteristic check or an implication study. The experiments CLI, the
// emmcd server's sweep jobs and the emmcc coordinator all pick studies by
// name from this one list (StudyNames, Lookup).
type Study struct {
	Name string
	// Traces is the default roster a coordinator may shard the study over
	// (nil: no per-trace axis). For any subset S of it, Run(env, S) must
	// produce exactly the full run's rows for S, in roster order, so a
	// row-wise merge of shards is bit-identical to the unsharded run. Only
	// casestudy qualifies: each replay depends only on its own (trace,
	// scheme, options, seed); faultsweep's cell seeds mix the plan index.
	Traces []string
	// Parts, for a composite study, names the studies it runs, in list
	// order.
	Parts []string

	run func(env *Env, traces []string) ([]Output, error)
}

// ErrValidationFailed is returned, together with the verdict table, by the
// validate study when any check fails.
var ErrValidationFailed = errors.New("experiments: reproduction validation failed")

// DefaultStudy is what the experiments CLI runs when none is named.
const DefaultStudy = "all"

// Run runs the study on env. A non-empty traces narrows the case-study
// roster (casestudy, fig8, fig9) and makes faultsweep ramp traces[0];
// other studies ignore it. A composite runs its parts in order. The env's
// context is checked before each part, so a canceled job stops at the next
// study boundary.
func (s Study) Run(env *Env, traces []string) ([]Output, error) {
	if s.run != nil {
		if err := env.context().Err(); err != nil {
			return nil, fmt.Errorf("experiments: study %s canceled: %w", s.Name, err)
		}
		return s.run(env, traces)
	}
	var out []Output
	for _, name := range s.Parts {
		part, _ := Lookup(name)
		o, err := part.Run(env, traces)
		out = append(out, o...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Tables drops the CLI-only parts of outputs.
func Tables(outs []Output) []*report.Table {
	ts := make([]*report.Table, len(outs))
	for i, o := range outs {
		ts[i] = o.Table
	}
	return ts
}

// StudyNames returns every study name, in list order.
func StudyNames() []string {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.Name
	}
	return names
}

// Lookup finds a study by name, ignoring case and surrounding space.
func Lookup(name string) (Study, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, s := range studies {
		if s.Name == name {
			return s, true
		}
	}
	return Study{}, false
}

// Select resolves names to the leaf studies the experiments CLI runs:
// composites expand to their parts, each study runs once, and the result
// is in list order whatever order the names came in. fig8 and fig9 are the
// two halves of casestudy's §V matrix, so the matrix runs once: the pair
// becomes casestudy, and casestudy drops either. An unknown name is a
// one-line error listing the known ones.
func Select(names []string) ([]Study, error) {
	want := map[string]bool{}
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown study %q; known studies: %s", name, strings.Join(StudyNames(), ", "))
		}
		want[s.Name] = true
		for _, p := range s.Parts {
			want[p] = true
		}
	}
	if want["fig8"] && want["fig9"] {
		want["casestudy"] = true
	}
	if want["casestudy"] {
		delete(want, "fig8")
		delete(want, "fig9")
	}
	var out []Study
	for _, s := range studies {
		if want[s.Name] && s.run != nil {
			out = append(out, s)
		}
	}
	return out, nil
}

// studies is the list. A leaf's position is where the CLI prints it.
var studies = []Study{
	{Name: "tablei", run: fixed(TableI)},
	{Name: "tableii", run: fixed(TableII)},
	{Name: "utilization", run: tableOfAll(DeviceUtilization, RenderUtilization)},
	{Name: "fig3", run: func(env *Env, _ []string) ([]Output, error) {
		res, err := Fig3(env, 8)
		if err != nil {
			return nil, err
		}
		return []Output{{Table: res.Render(), SVGName: "fig3.svg", SVG: res.Figure().WriteLineSVG}}, nil
	}},
	{Name: "tableiii", run: tableOf(TableIII, TableIIIResult.Render)},
	{Name: "fig4", run: distFigure(Fig4, DistResult.RenderSizes, DistResult.SizeFigure, "fig4.svg", "Fig. 4: Request size distributions")},
	{Name: "tableiv", run: tableOf(TableIV, TableIVResult.Render)},
	{Name: "fig5", run: distFigure(Fig5, DistResult.RenderResponses, DistResult.ResponseFigure, "fig5.svg", "Fig. 5: Response time distributions")},
	{Name: "fig6", run: distFigure(Fig6, DistResult.RenderInterarrivals, DistResult.InterarrivalFigure, "fig6.svg", "Fig. 6: Inter-arrival time distributions")},
	{Name: "fig7", run: func(env *Env, _ []string) ([]Output, error) {
		res, err := Fig7(env)
		if err != nil {
			return nil, err
		}
		return []Output{
			{Table: res.RenderSizes(), SVGName: "fig7a.svg", SVG: res.SizeFigure("Fig. 7a: Combo request sizes").WriteStackedSVG},
			{Table: res.RenderResponses(), SVGName: "fig7b.svg", SVG: res.ResponseFigure("Fig. 7b: Combo response times").WriteStackedSVG},
			{Table: res.RenderInterarrivals(), SVGName: "fig7c.svg", SVG: res.InterarrivalFigure("Fig. 7c: Combo inter-arrivals").WriteStackedSVG},
		}, nil
	}},
	{Name: "tablev", run: fixed(TableV)},
	// casestudy runs the §V matrix once for both figures; fig8 and fig9
	// each run it for one (Select runs fig8,fig9 as casestudy).
	{Name: "casestudy", Traces: paper.IndividualApps, run: caseStudyOutputs},
	{Name: "fig8", run: caseStudyFigure(0)},
	{Name: "fig9", run: caseStudyFigure(1)},
	{Name: "overhead", run: tableOfAll(TracerOverhead, OverheadResult.Render)},
	{Name: "characteristics", run: tableOf(Characteristics, RenderFindings)},
	{Name: "ablations", run: func(env *Env, _ []string) ([]Output, error) {
		ts, err := ablationTables(env)
		outs := make([]Output, len(ts))
		for i, t := range ts {
			outs[i].Table = t
		}
		return outs, err
	}},
	{Name: "profiles", run: fixed(ProfilesTable)},
	{Name: "gcsweep", run: onTrace(paper.Twitter, GCThresholdSweep, RenderGCThreshold)},
	{Name: "poolratio", run: onTrace(paper.Twitter, HPSPoolRatioSweep, RenderPoolRatio)},
	{Name: "writebuffer", run: tableOfAll(WriteBufferStudy, RenderWriteBuffer)},
	{Name: "readahead", run: tableOfAll(ReadAheadStudy, RenderReadAhead)},
	{Name: "cq", run: tableOfAll(CommandQueueStudy, RenderCQ)},
	{Name: "geometry", run: onTrace(paper.Twitter, GeometrySweep, RenderGeometry)},
	{Name: "ratesweep", run: onTrace(paper.Twitter, RateSweep, RenderRateSweep)},
	{Name: "aging", run: onTrace(paper.Movie, Aging, RenderAging)},
	{Name: "faultsweep", run: func(env *Env, traces []string) ([]Output, error) {
		name := paper.Twitter
		if len(traces) > 0 {
			name = traces[0]
		}
		pts, err := FaultSweep(env, name, env.Seed, nil)
		if err != nil {
			return nil, err
		}
		return []Output{{Table: RenderFaultSweep(name, pts)}}, nil
	}},
	{Name: "lifetime", run: tableOfAll(Lifetime, RenderLifetime)},
	// ensemble reruns the case study on five seeds; all leaves it out.
	{Name: "ensemble", run: tableOf(func(env *Env) (EnsembleResult, error) { return Fig8Ensemble(env, 5) }, RenderEnsemble)},
	{Name: "validate", run: func(env *Env, _ []string) ([]Output, error) {
		checks, err := Validate(env)
		if err != nil {
			return nil, err
		}
		for _, c := range checks {
			if !c.Pass {
				err = ErrValidationFailed
			}
		}
		return []Output{{Table: RenderChecks(checks)}}, err
	}},

	{Name: "tables", Parts: []string{"tablei", "tableii", "tableiii", "tableiv", "tablev"}},
	{Name: "figures", Parts: []string{"fig3", "fig4", "fig5", "fig6", "fig7"}},
	{Name: DefaultStudy, Parts: []string{"tablei", "tableii", "utilization", "fig3", "tableiii",
		"fig4", "tableiv", "fig5", "fig6", "fig7", "tablev", "casestudy", "overhead",
		"characteristics", "ablations", "profiles", "gcsweep", "poolratio", "writebuffer",
		"readahead", "cq", "geometry", "ratesweep", "aging", "faultsweep", "lifetime", "validate"}},
}

type runFunc = func(env *Env, traces []string) ([]Output, error)

// fixed lifts a table that needs no replay.
func fixed(render func() *report.Table) runFunc {
	return func(*Env, []string) ([]Output, error) { return []Output{{Table: render()}}, nil }
}

// tableOf lifts a one-table study: run it on the env, render the result.
func tableOf[T any](study func(*Env) (T, error), render func(T) *report.Table) runFunc {
	return func(env *Env, _ []string) ([]Output, error) {
		v, err := study(env)
		if err != nil {
			return nil, err
		}
		return []Output{{Table: render(v)}}, nil
	}
}

// tableOfAll is tableOf for a study over its default trace set.
func tableOfAll[T any](study func(*Env, ...string) (T, error), render func(T) *report.Table) runFunc {
	return tableOf(func(env *Env) (T, error) { return study(env) }, render)
}

// onTrace is tableOf for a sweep of one named trace at its default points.
func onTrace[T, P any](name string, study func(*Env, string, P) (T, error), render func(string, T) *report.Table) runFunc {
	var defaults P
	return tableOf(func(env *Env) (T, error) { return study(env, name, defaults) },
		func(v T) *report.Table { return render(name, v) })
}

// distFigure lifts a Figs. 4–6 distribution study with its stacked-bar SVG.
func distFigure(study func(*Env) (DistResult, error), render func(DistResult) *report.Table,
	figure func(DistResult, string) *report.Figure, file, title string) runFunc {
	return func(env *Env, _ []string) ([]Output, error) {
		res, err := study(env)
		if err != nil {
			return nil, err
		}
		return []Output{{Table: render(res), SVGName: file, SVG: figure(res, title).WriteStackedSVG}}, nil
	}
}

// caseStudyFigure runs the §V matrix for one of its two figures.
func caseStudyFigure(i int) runFunc {
	return func(env *Env, traces []string) ([]Output, error) {
		outs, err := caseStudyOutputs(env, traces)
		if err != nil {
			return nil, err
		}
		return outs[i : i+1], nil
	}
}

// caseStudyOutputs runs the §V matrix over traces (default: the 18
// individual apps) and returns the Fig. 8 and Fig. 9 outputs.
func caseStudyOutputs(env *Env, traces []string) ([]Output, error) {
	if len(traces) == 0 {
		traces = paper.IndividualApps
	}
	res, err := caseStudyOn(env, traces)
	if err != nil {
		return nil, err
	}
	best, worst := res.Best(), res.Worst()
	return []Output{{
		Table: res.RenderFig8(), SVGName: "fig8.svg", SVG: res.Fig8Figure().WriteBarSVG,
		Note: fmt.Sprintf("HPS vs 4PS: best -%.1f%% (%s), worst -%.1f%% (%s), average -%.1f%% (paper: 86%%, 24%%, 61.9%%)",
			best.MRTReductionVs4PS()*100, best.Name, worst.MRTReductionVs4PS()*100, worst.Name, res.AverageReduction()*100),
	}, {
		Table: res.RenderFig9(), SVGName: "fig9.svg", SVG: res.Fig9Figure().WriteBarSVG,
		Note: fmt.Sprintf("HPS vs 8PS space utilization: average +%.1f%% (paper: 13.1%%)", res.AverageUtilGain()*100),
	}}, nil
}
