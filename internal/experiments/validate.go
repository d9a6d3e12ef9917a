package experiments

import (
	"fmt"
	"math"

	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/telemetry"
)

// Check is one validation verdict: a published claim, the measured value,
// and whether it lands inside the reproduction tolerance.
type Check struct {
	Claim    string
	Paper    string
	Measured string
	Pass     bool
}

// Validate runs the reproduction's acceptance checklist: every published
// claim this repository targets, with its tolerance, in one pass/fail
// table. It is the programmatic form of EXPERIMENTS.md.
func Validate(env *Env) ([]Check, error) {
	var checks []Check
	add := func(claim, paperVal, measured string, pass bool) {
		checks = append(checks, Check{claim, paperVal, measured, pass})
	}

	// --- Table III ---
	t3 := TableIII(env)
	worstWr := 0.0
	for i := range t3.Measured {
		if d := math.Abs(t3.Measured[i].WriteReqPct - t3.Published[i].WriteReqPct); d > worstWr {
			worstWr = d
		}
	}
	add("Table III write-request % (all 25 traces)", "±3 points",
		fmt.Sprintf("worst |Δ| = %.1f", worstWr), worstWr <= 3)

	// --- Fig. 4 / Characteristic 2 ---
	f4 := Fig4(env)
	inBand := 0
	for i, name := range f4.Names {
		if paper.NotP4Majority[name] {
			continue
		}
		p4 := f4.Dists[i].Single4KFraction()
		if p4 >= paper.Char2MinP4-0.03 && p4 <= paper.Char2MaxP4+0.03 {
			inBand++
		}
	}
	add("Characteristic 2: 4 KB majority band", "15/18 traces in 44.9–57.4%",
		fmt.Sprintf("%d/18 in band", inBand), inBand >= 14)

	// --- Table IV ---
	t4, err := TableIV(env)
	if err != nil {
		return nil, err
	}
	noWait := 0
	worstSpatial, worstTemporal := 0.0, 0.0
	for i := range t4.Measured[:18] {
		if t4.Measured[i].NoWaitPct >= 63 {
			noWait++
		}
	}
	for i := range t4.Measured {
		if d := math.Abs(t4.Measured[i].SpatialPct - t4.Published[i].SpatialPct); d > worstSpatial {
			worstSpatial = d
		}
		if d := math.Abs(t4.Measured[i].TemporalPct - t4.Published[i].TemporalPct); d > worstTemporal {
			worstTemporal = d
		}
	}
	add("Characteristic 3: NoWait >= 63%", "15/18 traces",
		fmt.Sprintf("%d/18 traces", noWait), noWait >= 12)
	add("Table IV spatial locality", "±6 points",
		fmt.Sprintf("worst |Δ| = %.1f", worstSpatial), worstSpatial <= 6)
	add("Table IV temporal locality", "±7 points",
		fmt.Sprintf("worst |Δ| = %.1f", worstTemporal), worstTemporal <= 7)

	// --- Fig. 6 / Characteristic 6 ---
	f6 := Fig6(env)
	fatTail := 0
	for _, d := range f6.Dists {
		fr := d.Interarrival.Fractions()
		if fr[len(fr)-1] > 0.20 {
			fatTail++
		}
	}
	add("Characteristic 6: >20% of gaps above 16 ms", "10/18 traces",
		fmt.Sprintf("%d/18 traces", fatTail), fatTail >= 9 && fatTail <= 11)

	// --- Fig. 3 ---
	f3, err := Fig3(env, 4)
	if err != nil {
		return nil, err
	}
	mono := true
	for i := 1; i < len(f3.Points); i++ {
		if f3.Points[i].WriteMBs < f3.Points[i-1].WriteMBs*0.98 {
			mono = false
		}
	}
	add("Fig. 3: throughput rises with request size", "monotone; read > write",
		fmt.Sprintf("monotone=%v", mono), mono)

	// --- Case study (Figs. 8, 9) ---
	cs, err := CaseStudy(env)
	if err != nil {
		return nil, err
	}
	allWin := true
	utilExact := true
	for _, row := range cs.Rows {
		if row.MRTMs[2] >= row.MRTMs[0] {
			allWin = false
		}
		if row.Util[2] != 1.0 {
			utilExact = false
		}
	}
	add("Fig. 8: HPS beats 4PS on every trace", "18/18",
		fmt.Sprintf("allWin=%v", allWin), allWin)
	best := cs.Best()
	add("Fig. 8: largest reduction", "Booting (−86%)",
		fmt.Sprintf("%s (−%.1f%%)", best.Name, best.MRTReductionVs4PS()*100),
		best.Name == paper.Fig8BestApp)
	worst := cs.Worst()
	add("Fig. 8: smallest reduction", "−24% (Movie)",
		fmt.Sprintf("−%.1f%% (%s)", worst.MRTReductionVs4PS()*100, worst.Name),
		worst.MRTReductionVs4PS() >= 0.10)
	add("Fig. 9: HPS utilization equals 4PS", "1.0 on all 18",
		fmt.Sprintf("exact=%v", utilExact), utilExact)
	avgGain := cs.AverageUtilGain()
	add("Fig. 9: average HPS gain vs 8PS", "+13.1%",
		fmt.Sprintf("+%.1f%%", avgGain*100), math.Abs(avgGain-paper.Fig9AverageGain) <= 0.06)

	// --- §II-C ---
	oh, err := TracerOverhead(env, paper.Twitter)
	if err != nil {
		return nil, err
	}
	got := oh.Overheads[0].RequestOverhead
	add("BIOtracer overhead", "~2%",
		fmt.Sprintf("%.2f%%", got*100), math.Abs(got-0.02) <= 0.006)

	// --- Observability: the trace instrument must see every request ---
	// Replay one Fig. 8 trace with telemetry attached and require that the
	// span count and request counters agree exactly with the trace length —
	// the instrument can neither drop nor invent requests.
	obsN := int64(len(env.shared(paper.Twitter).Reqs))
	obsReg := telemetry.NewRegistry()
	obsTc := telemetry.NewTracer(8 * int(obsN))
	obsDev, err := core.NewDevice(core.SchemeHPS, core.CaseStudyOptions())
	if err != nil {
		return nil, err
	}
	obs := core.ReplayOpts{Registry: obsReg, Tracer: obsTc}
	if _, err := core.Replay(env.context(), obsDev, core.SchemeHPS, env.Stream(paper.Twitter), obs); err != nil {
		return nil, err
	}
	spans := obsTc.CountSpans("core", "request")
	counted := obsReg.Counter("core_requests_total", telemetry.L("op", "read")).Value() +
		obsReg.Counter("core_requests_total", telemetry.L("op", "write")).Value()
	obsOK := spans == obsN && counted == obsN && obsTc.Dropped() == 0
	add("Telemetry: one span per replayed request", fmt.Sprintf("%d requests", obsN),
		fmt.Sprintf("%d spans, %d counted, %d dropped", spans, counted, obsTc.Dropped()), obsOK)

	// --- The six characteristics ---
	findings, err := Characteristics(env)
	if err != nil {
		return nil, err
	}
	hold := 0
	for _, f := range findings {
		if f.Holds {
			hold++
		}
	}
	add("All six characteristics hold", "6/6",
		fmt.Sprintf("%d/6", hold), hold == 6)

	return checks, nil
}

// RenderChecks renders the validation verdicts.
func RenderChecks(checks []Check) *report.Table {
	t := report.NewTable("Reproduction validation (paper vs measured)",
		"Check", "Paper", "Measured", "Verdict")
	for _, c := range checks {
		v := "PASS"
		if !c.Pass {
			v = "FAIL"
		}
		t.AddRow(c.Claim, c.Paper, c.Measured, v)
	}
	return t
}
