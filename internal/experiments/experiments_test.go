package experiments

import (
	"bytes"
	"context"
	"math"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/paper"
)

// The tests in this file are the reproduction's integration gate: each one
// asserts the published *shape* of a table or figure on freshly generated
// traces. Absolute values are compared in EXPERIMENTS.md, not here.

func TestTableIRoster(t *testing.T) {
	tb := TableI()
	if tb.Rows() != 18 {
		t.Fatalf("Table I rows %d, want 18", tb.Rows())
	}
}

func TestTableIIICloseToPaper(t *testing.T) {
	res := TableIII(DefaultEnv())
	if len(res.Measured) != 25 {
		t.Fatalf("%d rows, want 25", len(res.Measured))
	}
	for i, name := range res.Names {
		m, p := res.Measured[i], res.Published[i]
		if m.Requests != paper.EffectiveRequests(name) {
			t.Errorf("%s: %d requests, want %d", name, m.Requests, paper.EffectiveRequests(name))
		}
		if math.Abs(m.WriteReqPct-p.WriteReqPct) > 3 {
			t.Errorf("%s: write%% %.1f vs paper %.1f", name, m.WriteReqPct, p.WriteReqPct)
		}
	}
	var buf bytes.Buffer
	if err := res.Render().WriteText(&buf); err != nil || buf.Len() == 0 {
		t.Fatal("render failed")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(DefaultEnv(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if len(pts) != 13 { // 4KB..16MB doubling
		t.Fatalf("%d points, want 13", len(pts))
	}
	for i, p := range pts {
		if p.ReadMBs > 0 && p.ReadMBs <= p.WriteMBs {
			t.Errorf("size %d: read %.1f <= write %.1f (reads must be faster)",
				p.SizeBytes, p.ReadMBs, p.WriteMBs)
		}
		if i > 0 && p.WriteMBs < pts[i-1].WriteMBs*0.98 {
			t.Errorf("write throughput decreased at %d bytes", p.SizeBytes)
		}
		if p.SizeBytes > 256*1024 && p.ReadMBs != 0 {
			t.Errorf("read series extends past 256 KB")
		}
	}
	// Endpoint bands (paper: read 13.94->99.65, write 5.18->56.15 MB/s).
	r4 := pts[0].ReadMBs
	if r4 < 5 || r4 > 25 {
		t.Errorf("4KB read throughput %.1f MB/s, want near the paper's 13.94", r4)
	}
	var r256 float64
	for _, p := range pts {
		if p.SizeBytes == 256*1024 {
			r256 = p.ReadMBs
		}
	}
	if r256 < 50 || r256 > 200 {
		t.Errorf("256KB read throughput %.1f MB/s, want near the paper's 99.65", r256)
	}
	w4 := pts[0].WriteMBs
	if w4 < 1 || w4 > 12 {
		t.Errorf("4KB write throughput %.1f MB/s, want near the paper's 5.18", w4)
	}
	w16m := pts[len(pts)-1].WriteMBs
	if w16m < 20 || w16m > 120 {
		t.Errorf("16MB write throughput %.1f MB/s, want near the paper's 56.15", w16m)
	}
	if w16m/w4 < 3 {
		t.Errorf("write throughput rises only %.1fx from 4KB to 16MB", w16m/w4)
	}
}

func TestTableIVCloseToPaper(t *testing.T) {
	res, err := TableIV(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != 25 {
		t.Fatalf("%d rows, want 25", len(res.Measured))
	}
	for i, name := range res.Names {
		m, p := res.Measured[i], res.Published[i]
		if relDiff(m.DurationSec, p.DurationSec) > 0.06 {
			t.Errorf("%s: duration %.0f vs paper %.0f", name, m.DurationSec, p.DurationSec)
		}
		if relDiff(m.ArrivalRate, p.ArrivalRate) > 0.15 {
			t.Errorf("%s: arrival rate %.2f vs paper %.2f", name, m.ArrivalRate, p.ArrivalRate)
		}
		if math.Abs(m.SpatialPct-p.SpatialPct) > 6 {
			t.Errorf("%s: spatial %.1f vs paper %.1f", name, m.SpatialPct, p.SpatialPct)
		}
		if math.Abs(m.TemporalPct-p.TemporalPct) > 7 {
			t.Errorf("%s: temporal %.1f vs paper %.1f", name, m.TemporalPct, p.TemporalPct)
		}
		// Response includes service.
		if m.MeanRespMs < m.MeanServMs {
			t.Errorf("%s: response %.2f below service %.2f", name, m.MeanRespMs, m.MeanServMs)
		}
	}
	// Characteristic 3 shape: most traces serve most requests immediately.
	high := 0
	for _, m := range res.Measured[:18] {
		if m.NoWaitPct >= 63 {
			high++
		}
	}
	if high < 12 {
		t.Errorf("only %d/18 traces have NoWait >= 63%%; paper reports 15", high)
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestFig4Shape(t *testing.T) {
	res := Fig4(DefaultEnv())
	if len(res.Dists) != 18 {
		t.Fatalf("%d distributions, want 18", len(res.Dists))
	}
	inBand := 0
	for i, name := range res.Names {
		p4 := res.Dists[i].Single4KFraction()
		if paper.NotP4Majority[name] {
			continue
		}
		if p4 >= paper.Char2MinP4-0.03 && p4 <= paper.Char2MaxP4+0.03 {
			inBand++
		}
	}
	if inBand < 14 {
		t.Errorf("only %d traces in the Characteristic-2 band, want 15", inBand)
	}
}

func TestFig5MostResponsesFast(t *testing.T) {
	res, err := Fig5(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5: "a vast majority of requests can be processed within 16 ms"
	// and few exceed 128 ms. The data-heavy traces (Booting, CameraVideo,
	// Installing — the paper's own high-MRT group) carry the long tail.
	dataHeavy := map[string]bool{paper.Booting: true, paper.CameraVideo: true, paper.Installing: true}
	var sum16, n float64
	for i, name := range res.Names {
		fr := res.Dists[i].Response.Fractions()
		within16 := fr[0] + fr[1] + fr[2] + fr[3]
		sum16 += within16
		n++
		if within16 < 0.55 {
			t.Errorf("%s: only %.2f of responses within 16 ms", name, within16)
		}
		limit := 0.05
		if dataHeavy[name] {
			limit = 0.15
		}
		if over128 := fr[len(fr)-1]; over128 > limit {
			t.Errorf("%s: %.3f of responses above 128 ms", name, over128)
		}
	}
	if sum16/n < 0.75 {
		t.Errorf("across traces only %.2f of responses within 16 ms on average", sum16/n)
	}
}

func TestFig6InterarrivalShape(t *testing.T) {
	res := Fig6(DefaultEnv())
	fatTail := 0
	for i, name := range res.Names {
		fr := res.Dists[i].Interarrival.Fractions()
		if fr[len(fr)-1] > 0.20 {
			fatTail++
		}
		if name == paper.Movie && fr[0] < 0.5 {
			t.Errorf("Movie: only %.2f of gaps below 1 ms", fr[0])
		}
	}
	if fatTail < 9 || fatTail > 11 {
		t.Errorf("%d traces with >20%% gaps above 16 ms, paper reports 10", fatTail)
	}
}

func TestFig7ComboShape(t *testing.T) {
	res, err := Fig7(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dists) != 7 {
		t.Fatalf("%d combos, want 7", len(res.Dists))
	}
	// Fig. 7c: all combos keep >20% of gaps above 4 ms except Music/FB.
	for i, name := range res.Names {
		fr := res.Dists[i].Interarrival.Fractions()
		over4 := fr[3] + fr[4] + fr[5]
		if name == paper.MusicFB {
			if over4 > 0.25 {
				t.Errorf("Music/FB: %.2f of gaps above 4 ms, should be the low outlier", over4)
			}
			continue
		}
		if over4 < 0.20 {
			t.Errorf("%s: only %.2f of gaps above 4 ms", name, over4)
		}
	}
}

func TestCaseStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("case study replays 54 device-trace pairs")
	}
	res, err := CaseStudy(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 {
		t.Fatalf("%d rows, want 18", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Fig. 8: HPS beats 4PS on every trace; 8PS is close to HPS.
		if row.MRTMs[2] >= row.MRTMs[0] {
			t.Errorf("%s: HPS MRT %.2f not below 4PS %.2f", row.Name, row.MRTMs[2], row.MRTMs[0])
		}
		if rel := row.MRTMs[1] / row.MRTMs[2]; rel < 0.85 || rel > 1.3 {
			t.Errorf("%s: 8PS/HPS MRT ratio %.2f, want near 1 (paper: very similar)", row.Name, rel)
		}
		// Fig. 9: HPS matches 4PS utilization exactly; 8PS never exceeds it.
		if row.Util[2] != 1.0 || row.Util[0] != 1.0 {
			t.Errorf("%s: HPS/4PS utilization %.3f/%.3f, want 1.0", row.Name, row.Util[2], row.Util[0])
		}
		if row.Util[1] > 1.0 {
			t.Errorf("%s: 8PS utilization %.3f above 1", row.Name, row.Util[1])
		}
	}
	// Headline shapes.
	if best := res.Best(); best.Name != paper.Fig8BestApp {
		t.Errorf("largest MRT reduction on %s (%.1f%%), paper reports %s",
			best.Name, best.MRTReductionVs4PS()*100, paper.Fig8BestApp)
	}
	if avg := res.AverageReduction(); avg < 0.25 {
		t.Errorf("average MRT reduction %.1f%%, want a substantial fraction of the paper's 61.9%%", avg*100)
	}
	if worst := res.Worst(); worst.MRTReductionVs4PS() < 0.10 {
		t.Errorf("worst-case reduction %.1f%% too small (paper's worst is 24%%)",
			worst.MRTReductionVs4PS()*100)
	}
	// Fig. 9 headlines: Music among the biggest gains; average near 13.1%.
	var musicGain float64
	for _, row := range res.Rows {
		if row.Name == paper.Fig9BestApp {
			musicGain = row.UtilGainVs8PS()
		}
	}
	if musicGain < 0.15 {
		t.Errorf("Music utilization gain %.1f%%, paper reports 24.2%%", musicGain*100)
	}
	if avg := res.AverageUtilGain(); math.Abs(avg-paper.Fig9AverageGain) > 0.06 {
		t.Errorf("average utilization gain %.1f%%, paper reports 13.1%%", avg*100)
	}
}

func TestTracerOverheadNearTwoPercent(t *testing.T) {
	res, err := TracerOverhead(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range res.Names {
		o := res.Overheads[i]
		if math.Abs(o.RequestOverhead-0.02) > 0.006 {
			t.Errorf("%s: overhead %.4f, paper reports ~2%%", name, o.RequestOverhead)
		}
	}
}

func TestCharacteristicsAllHold(t *testing.T) {
	findings, err := Characteristics(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 6 {
		t.Fatalf("%d findings, want 6", len(findings))
	}
	for _, f := range findings {
		if !f.Holds {
			t.Errorf("Characteristic %d does not hold: %s", f.ID, f.Evidence)
		}
	}
}

func TestImplicationAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations replay many device-trace pairs")
	}
	env := DefaultEnv()

	p1, err := Implication1Parallelism(env, paper.Messaging, paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p1 {
		// Small-request traces gain little from interleaving (Implication 1):
		// the simple controller is within 2x of the interleaved one, while
		// most requests already wait for nothing.
		if r.InterleaveMRTMs <= 0 || r.SimpleMRTMs/r.InterleaveMRTMs > 2.5 {
			t.Errorf("%s: simple %.2fms vs interleave %.2fms — parallelism matters too much",
				r.Name, r.SimpleMRTMs, r.InterleaveMRTMs)
		}
	}

	p2, err := Implication2IdleGC(env, paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p2 {
		if r.IdleAbsorbedMs == 0 {
			t.Errorf("%s: idle GC absorbed nothing; device too large for the trace?", r.Name)
		}
		if r.IdleStallMs >= r.ForegroundStallMs {
			t.Errorf("%s: idle GC stalls %.1f not below foreground %.1f",
				r.Name, r.IdleStallMs, r.ForegroundStallMs)
		}
		if r.IdleMRTMs > r.ForegroundMRTMs*1.02 {
			t.Errorf("%s: idle-GC MRT %.2f worse than foreground %.2f",
				r.Name, r.IdleMRTMs, r.ForegroundMRTMs)
		}
	}

	p3, err := Implication3Buffer(env, []int{4, 64}, paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p3 {
		// Implication 3: hit rate is bounded by the weak temporal locality.
		if r.HitRatePct > r.TemporalPct+15 {
			t.Errorf("%s/%dMB: hit rate %.1f%% far above temporal locality %.1f%%",
				r.Name, r.BufferMB, r.HitRatePct, r.TemporalPct)
		}
	}

	p4, err := Implication4Wear(env, paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p4 {
		if r.TotalErases == 0 {
			t.Errorf("%s/%v: no erases; shrink the device further", r.Name, r.Policy)
		}
	}
	// Round-robin must keep the spread tight without extra moves.
	for _, r := range p4 {
		if r.Policy.String() != "round-robin" {
			continue
		}
		if r.MaxErases-r.MinErases > r.MaxErases/2+2 {
			t.Errorf("%s: wear spread %d..%d too wide for round-robin leveling",
				r.Name, r.MinErases, r.MaxErases)
		}
		if r.LevelMoves != 0 {
			t.Errorf("%s: round-robin made %d leveling moves", r.Name, r.LevelMoves)
		}
	}

	p5, err := Implication5SLC(env, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p5 {
		if r.SLCMRTMs >= r.MLCMRTMs {
			t.Errorf("%s: SLC-mode MRT %.2f not below MLC %.2f", r.Name, r.SLCMRTMs, r.MLCMRTMs)
		}
	}

	tables := RenderAblations(p1, p2, p3, p4, p5)
	if len(tables) != 5 {
		t.Fatalf("%d ablation tables, want 5", len(tables))
	}
}

// The SLC-cache hybrid (Implications 1+5 combined): faster than plain HPS
// on 4 KB-dominant traces, at a documented capacity cost.
func TestSLCCacheHybrid(t *testing.T) {
	env := DefaultEnv()
	rows, err := Implication5SLCCache(env, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HPSSLCMRTMs >= r.HPSMRTMs {
			t.Errorf("%s: SLC-cache MRT %.2f not below HPS %.2f", r.Name, r.HPSSLCMRTMs, r.HPSMRTMs)
		}
		if r.HPSSLCCapacityGB >= r.HPSCapacityGB {
			t.Errorf("%s: SLC cache should cost capacity (%.0f vs %.0f GB)",
				r.Name, r.HPSSLCCapacityGB, r.HPSCapacityGB)
		}
		// Fig. 10 arithmetic: HPS 32 GB; SLC variant loses half the 4 KB
		// pool = 8 GB.
		if r.HPSCapacityGB != 32 || r.HPSSLCCapacityGB != 24 {
			t.Errorf("%s: capacities %.0f/%.0f GB, want 32/24", r.Name, r.HPSCapacityGB, r.HPSSLCCapacityGB)
		}
	}
}

// MLC pairing preserves the mean but adds variance; the replayed MRT stays
// within a few percent of the unpaired model.
func TestMLCPairingPreservesMeanService(t *testing.T) {
	env := DefaultEnv()
	base := core.DefaultTiming()
	paired := core.DefaultTiming()
	paired.MLCPairing = true
	paired.PairingSpread = 0.8

	replay := func(opt core.Options) core.Metrics {
		dev, err := core.NewDevice(core.Scheme4PS, opt)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Replay(env.context(), dev, core.Scheme4PS, env.Stream(paper.Messaging), core.ReplayOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := replay(core.Options{Timing: &base})
	m2 := replay(core.Options{Timing: &paired})
	if relDiff(m2.MeanServiceNs, m1.MeanServiceNs) > 0.10 {
		t.Fatalf("pairing moved mean service %.2f -> %.2f ms",
			m1.MeanServiceNs/1e6, m2.MeanServiceNs/1e6)
	}
}

// The validation checklist passes end to end — the programmatic form of
// EXPERIMENTS.md.
func TestValidateChecklist(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	checks, err := Validate(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 12 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("FAIL: %s — paper %s, measured %s", c.Claim, c.Paper, c.Measured)
		}
	}
}

// Lifetime projection: HPS sustains the workload at least as long as 8PS
// (the §V-A lifetime argument), since it wastes no flash on padding.
func TestLifetimeProjection(t *testing.T) {
	rows, err := Lifetime(DefaultEnv(), paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 schemes", len(rows))
	}
	days := map[core.Scheme]float64{}
	for _, r := range rows {
		if r.ProjectedDays <= 0 || r.FlashWrittenPerDayGB <= 0 {
			t.Fatalf("degenerate projection %+v", r)
		}
		days[r.Scheme] = r.ProjectedDays
	}
	if days[core.SchemeHPS] < days[core.Scheme8PS]*0.99 {
		t.Errorf("HPS projected %f days, below 8PS %f — padding waste should cost 8PS lifetime",
			days[core.SchemeHPS], days[core.Scheme8PS])
	}
	if RenderLifetime(rows).Rows() != 3 {
		t.Fatal("render mismatch")
	}
}

// Rate sensitivity: compressing arrivals makes the HPS advantage grow — the
// queueing mechanism behind Fig. 8's data-intensive outliers.
func TestRateSweepMonotone(t *testing.T) {
	pts, err := RateSweep(DefaultEnv(), paper.Twitter, []float64{1.0, 0.25, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i := range pts {
		if pts[i].MRTHPSMs >= pts[i].MRT4PSMs {
			t.Errorf("factor %.2f: HPS %.2f not below 4PS %.2f",
				pts[i].Factor, pts[i].MRTHPSMs, pts[i].MRT4PSMs)
		}
		if i > 0 && pts[i].Rate <= pts[i-1].Rate {
			t.Errorf("rate did not rise with compression")
		}
	}
	// Deep saturation (20x the original rate) must widen the HPS advantage
	// beyond the baseline; the mid-range may dip as queueing regimes shift.
	if pts[2].Reduction() <= pts[0].Reduction() {
		t.Errorf("reduction at 20x rate (%.1f%%) not above baseline (%.1f%%)",
			pts[2].Reduction()*100, pts[0].Reduction()*100)
	}
}

// DFTL mapping cache: hit rate grows with cache size, and a bigger cache
// never hurts MRT — but even 256 KB leaves misses because the workloads'
// localities are weak (Implication 3 in its realistic form).
func TestMapCacheSweep(t *testing.T) {
	rows, err := Implication3MapCache(DefaultEnv(), []int{16, 256}, paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, big := rows[0], rows[1]
	if big.HitRatePct < small.HitRatePct {
		t.Errorf("hit rate fell with a bigger cache: %.1f%% -> %.1f%%", small.HitRatePct, big.HitRatePct)
	}
	if big.MRTMs > small.MRTMs*1.01 {
		t.Errorf("MRT rose with a bigger cache: %.2f -> %.2f", small.MRTMs, big.MRTMs)
	}
	if small.MapReadsPer1k == 0 {
		t.Error("small cache produced no translation reads")
	}
	// An idealized (unbounded) map never pays translation I/O.
	opt := core.CaseStudyOptions()
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := DefaultEnv().Stream(paper.Twitter)
	if _, err := core.Replay(context.Background(), dev, core.Scheme4PS, st, core.ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	if dev.Metrics().MapReads != 0 {
		t.Error("unbounded mapping RAM paid translation reads")
	}
	if RenderMapCache(rows).Rows() != 2 {
		t.Error("render mismatch")
	}
}

// Offloading media to a slower SDcard degrades overall MRT even though it
// adds a second parallel device — Implication 1's SDcard warning.
func TestSDCardSplitDegrades(t *testing.T) {
	rows, err := Implication1SDCard(DefaultEnv(), paper.Music, paper.CameraVideo)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SDSharePct <= 0 {
			t.Errorf("%s: nothing went to the card", r.Name)
			continue
		}
		if r.SplitMRTMs <= r.EMMCOnlyMRTMs {
			t.Errorf("%s: split MRT %.2f not above eMMC-only %.2f",
				r.Name, r.SplitMRTMs, r.EMMCOnlyMRTMs)
		}
	}
}

// Aging: read MRT is flat through most of rated life, then climbs as ECC
// retries kick in past the endurance budget.
func TestAgingCurve(t *testing.T) {
	pts, err := Aging(DefaultEnv(), paper.Movie, []float64{0, 1.0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].RetryFactor != 1 {
		t.Errorf("fresh retry factor %v", pts[0].RetryFactor)
	}
	if pts[2].RetryFactor <= pts[0].RetryFactor {
		t.Error("retry factor did not grow with wear")
	}
	if pts[2].MRTMs <= pts[0].MRTMs {
		t.Errorf("aged MRT %.2f not above fresh %.2f", pts[2].MRTMs, pts[0].MRTMs)
	}
	if pts[1].MRTMs > pts[0].MRTMs*1.25 {
		t.Errorf("within-rated-life MRT penalty too large: %.2f vs %.2f", pts[1].MRTMs, pts[0].MRTMs)
	}
}

// Utilization: every trace leaves the measured device under 40% busy, most
// far below — why extra parallelism buys little (Implication 1) and why
// idle gaps can absorb GC (Implication 2).
func TestDeviceUtilizationLow(t *testing.T) {
	rows, err := DeviceUtilization(DefaultEnv(), paper.Twitter, paper.Idle, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DevicePct > 40 {
			t.Errorf("%s: device %.1f%% busy, smartphone traces should leave it idle", r.Name, r.DevicePct)
		}
	}
	if TableII().Rows() != 9 {
		t.Error("Table II roster drifted")
	}
}

// GC threshold: a lazier trigger (smaller threshold) defers collections but
// cannot reduce the total erase work; all points serve the trace correctly.
func TestGCThresholdSweep(t *testing.T) {
	rows, err := GCThresholdSweep(DefaultEnv(), paper.Twitter, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Erases == 0 {
			t.Errorf("threshold %d: GC never fired", r.Threshold)
		}
	}
	if RenderGCThreshold(paper.Twitter, rows).Rows() != 2 {
		t.Error("render mismatch")
	}
}

// HPS pool ratio: Table V's 512+256 split serves Twitter without one pool
// thrashing; an extreme split starves the 4 KB pool and pays GC stalls.
func TestHPSPoolRatioSweep(t *testing.T) {
	rows, err := HPSPoolRatioSweep(DefaultEnv(), paper.Twitter, [][2]int{{512, 256}, {128, 448}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	tableV, starved := rows[0], rows[1]
	if starved.GCStallMs < tableV.GCStallMs {
		t.Errorf("starving the 4K pool (%d blocks) did not raise GC stalls: %.1f vs %.1f",
			starved.Blocks4K, starved.GCStallMs, tableV.GCStallMs)
	}
	if tableV.MRTMs > starved.MRTMs {
		t.Errorf("Table V split MRT %.3f above the starved split %.3f", tableV.MRTMs, starved.MRTMs)
	}
}

func TestProfilesTable(t *testing.T) {
	if ProfilesTable().Rows() != 25 {
		t.Fatal("profiles table should list all 25 traces")
	}
}

// The sweep runner is deterministic: any worker-pool width produces exactly
// the width-1 (strict plan order, inline execution) results, row for row.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 108 replays")
	}
	serialEnv := DefaultEnv()
	serialEnv.Workers = 1
	serial, err := CaseStudy(serialEnv)
	if err != nil {
		t.Fatal(err)
	}
	wideEnv := DefaultEnv()
	wideEnv.Workers = 8
	wide, err := CaseStudy(wideEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(wide.Rows) {
		t.Fatal("row count mismatch")
	}
	for i := range serial.Rows {
		if serial.Rows[i] != wide.Rows[i] {
			t.Fatalf("row %d differs:\n-j 1 %+v\n-j 8 %+v",
				i, serial.Rows[i], wide.Rows[i])
		}
	}
}

// Same determinism check on an ablation that mixes GC policies and a
// Prepare hook — ordering must match the plan, not completion order.
func TestSweepDeterminismAblation(t *testing.T) {
	serialEnv := DefaultEnv()
	serialEnv.Workers = 1
	serial, err := Implication2IdleGC(serialEnv, paper.Twitter, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	wideEnv := DefaultEnv()
	wideEnv.Workers = 8
	wide, err := Implication2IdleGC(wideEnv, paper.Twitter, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(wide) {
		t.Fatal("row count mismatch")
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("row %d differs:\n-j 1 %+v\n-j 8 %+v", i, serial[i], wide[i])
		}
	}
}

// A command queue buys almost nothing on typical traces (NoWait is already
// high) but rescues the saturated Booting storm — Implication 1 both ways.
func TestCommandQueueStudy(t *testing.T) {
	rows, err := CommandQueueStudy(DefaultEnv(), paper.Messaging, paper.Booting)
	if err != nil {
		t.Fatal(err)
	}
	msg, boot := rows[0], rows[1]
	if gain := 1 - msg.CQMRTMs/msg.FIFOMRTMs; gain > 0.35 {
		t.Errorf("Messaging CQ gain %.1f%% too large for a %.0f%% NoWait trace",
			gain*100, msg.NoWaitPct)
	}
	if boot.CQMRTMs >= boot.FIFOMRTMs {
		t.Errorf("Booting: CQ %.2f not below FIFO %.2f under saturation",
			boot.CQMRTMs, boot.FIFOMRTMs)
	}
}

// Doubling channels beyond the paper's 2 moves typical-trace MRT by little.
func TestGeometrySweepDiminishingReturns(t *testing.T) {
	rows, err := GeometrySweep(DefaultEnv(), paper.Twitter, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	two, four := rows[0], rows[1]
	if four.MRTMs > two.MRTMs*1.001 {
		t.Errorf("more channels made things worse: %.3f -> %.3f", two.MRTMs, four.MRTMs)
	}
	if gain := 1 - four.MRTMs/two.MRTMs; gain > 0.45 {
		t.Errorf("doubling channels gained %.1f%%; expected diminishing returns", gain*100)
	}
}

// Exercise every renderer once: table shapes stay consistent with their
// data, and none panics on real results.
func TestAllRenderers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many replays")
	}
	env := DefaultEnv()
	if TableI().Rows() != 18 || TableII().Rows() != 9 || TableV().Rows() != 7 {
		t.Error("static tables drifted")
	}
	if got := TableIII(env).Render().Rows(); got != 25 {
		t.Errorf("Table III render %d rows", got)
	}
	t4, err := TableIV(env)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Render().Rows() != 25 {
		t.Error("Table IV render")
	}
	f3, err := Fig3(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Render().Rows() != 13 {
		t.Error("Fig3 render")
	}
	var svg bytes.Buffer
	if err := f3.Figure().WriteLineSVG(&svg); err != nil {
		t.Error(err)
	}
	d4 := Fig4(env)
	if d4.RenderSizes().Rows() != 18 {
		t.Error("Fig4 render")
	}
	svg.Reset()
	if err := d4.SizeFigure("t").WriteStackedSVG(&svg); err != nil {
		t.Error(err)
	}
	f5, err := Fig5(env)
	if err != nil {
		t.Fatal(err)
	}
	if f5.RenderResponses().Rows() != 18 {
		t.Error("Fig5 render")
	}
	svg.Reset()
	if err := f5.ResponseFigure("t").WriteStackedSVG(&svg); err != nil {
		t.Error(err)
	}
	d6 := Fig6(env)
	if d6.RenderInterarrivals().Rows() != 18 {
		t.Error("Fig6 render")
	}
	svg.Reset()
	if err := d6.InterarrivalFigure("t").WriteStackedSVG(&svg); err != nil {
		t.Error(err)
	}
	cs, err := CaseStudy(env)
	if err != nil {
		t.Fatal(err)
	}
	if cs.RenderFig8().Rows() != 18 || cs.RenderFig9().Rows() != 18 {
		t.Error("case study renders")
	}
	svg.Reset()
	if err := cs.Fig8Figure().WriteBarSVG(&svg); err != nil {
		t.Error(err)
	}
	svg.Reset()
	if err := cs.Fig9Figure().WriteBarSVG(&svg); err != nil {
		t.Error(err)
	}
	findings, err := Characteristics(env)
	if err != nil {
		t.Fatal(err)
	}
	if RenderFindings(findings).Rows() != 6 {
		t.Error("findings render")
	}
	oh, err := TracerOverhead(env)
	if err != nil {
		t.Fatal(err)
	}
	if oh.Render().Rows() != 3 {
		t.Error("overhead render")
	}
	util, err := DeviceUtilization(env, paper.Idle)
	if err != nil {
		t.Fatal(err)
	}
	if RenderUtilization(util).Rows() != 1 {
		t.Error("utilization render")
	}
	rs, err := RateSweep(env, paper.Messaging, []float64{1.0})
	if err != nil {
		t.Fatal(err)
	}
	if RenderRateSweep(paper.Messaging, rs).Rows() != 1 {
		t.Error("rate sweep render")
	}
	cq, err := CommandQueueStudy(env, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	if RenderCQ(cq).Rows() != 1 {
		t.Error("CQ render")
	}
	geo, err := GeometrySweep(env, paper.Messaging, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if RenderGeometry(paper.Messaging, geo).Rows() != 1 {
		t.Error("geometry render")
	}
	life, err := Lifetime(env, paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	if RenderLifetime(life).Rows() != 3 {
		t.Error("lifetime render")
	}
	ag, err := Aging(env, paper.Messaging, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if RenderAging(paper.Messaging, ag).Rows() != 1 {
		t.Error("aging render")
	}
}

// The write buffer hides most write latency for BOTH schemes, compressing
// the 4PS-vs-HPS gap — the fairness reason §V-B disables it.
func TestWriteBufferStudy(t *testing.T) {
	rows, err := WriteBufferStudy(DefaultEnv(), paper.Messaging)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var gap, bufGap float64
	for _, r := range rows {
		if r.BufferedMRTMs >= r.PlainMRTMs {
			t.Errorf("%s/%s: buffered MRT %.2f not below plain %.2f",
				r.Name, r.Scheme, r.BufferedMRTMs, r.PlainMRTMs)
		}
	}
	gap = rows[0].PlainMRTMs - rows[1].PlainMRTMs          // 4PS - HPS, unbuffered
	bufGap = rows[0].BufferedMRTMs - rows[1].BufferedMRTMs // with the buffer
	if bufGap >= gap {
		t.Errorf("the buffer should compress the scheme gap: %.2f -> %.2f ms", gap, bufGap)
	}
}

// Read-ahead accuracy tracks the trace's spatial locality: weakly
// sequential traces waste most prefetches (Implication 3's other face).
func TestReadAheadStudy(t *testing.T) {
	rows, err := ReadAheadStudy(DefaultEnv(), paper.Movie, paper.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AccuracyPct > r.SpatialPct+25 {
			t.Errorf("%s: prefetch accuracy %.1f%% far above spatial locality %.1f%%",
				r.Name, r.AccuracyPct, r.SpatialPct)
		}
		if r.RAMRTMs > r.PlainMRTMs*1.02 {
			t.Errorf("%s: read-ahead hurt MRT %.2f -> %.2f", r.Name, r.PlainMRTMs, r.RAMRTMs)
		}
	}
}

// The headline numbers are stable across trace seeds: the reproduction's
// conclusions are not one lucky sample.
func TestFig8EnsembleStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the case study three times")
	}
	res, err := Fig8Ensemble(DefaultEnv(), 3)
	if err != nil {
		t.Fatal(err)
	}
	mean, std := meanStd(res.AvgReductions)
	if mean < 0.25 {
		t.Errorf("ensemble mean reduction %.1f%% too small", mean*100)
	}
	if std > 0.05 {
		t.Errorf("ensemble reduction spread %.1f%% too noisy", std*100)
	}
	um, us := meanStd(res.UtilGains)
	if um < 0.08 || us > 0.02 {
		t.Errorf("utilization gain %.1f%% ± %.2f%% unstable", um*100, us*100)
	}
}
