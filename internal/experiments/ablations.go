package experiments

import (
	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// Ablation experiments back the paper's five Implications with measurements
// on the same substrates the case study uses.

// ParallelismRow compares the simple (channel-held) controller against an
// SSD-style interleaving controller on one trace — Implication 1: because
// few requests arrive simultaneously and requests are small, adding
// device-level parallelism helps far less than serving requests faster.
type ParallelismRow struct {
	Name            string
	SimpleMRTMs     float64
	InterleaveMRTMs float64
	SJFMRTMs        float64 // host-side shortest-job-first reordering
	NoWaitPct       float64
}

// Implication1Parallelism measures the benefit of an interleaving
// controller per trace.
func Implication1Parallelism(env *Env, names ...string) ([]ParallelismRow, error) {
	if len(names) == 0 {
		names = []string{paper.Messaging, paper.Twitter, paper.Movie, paper.Booting}
	}
	inter := core.DefaultTiming()
	inter.ChannelInterleave = true
	var jobs []ReplayJob
	for _, name := range names {
		jobs = append(jobs,
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.CaseStudyOptions()},
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.Options{Timing: &inter}},
			// Host-side reordering (the "parallel request queues at OS
			// layer" of Implication 1): strongest simple policy, SJF.
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.CaseStudyOptions(), Policy: core.SchedSJF},
		)
	}
	results, err := env.Replays("implication1-parallelism", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]ParallelismRow, len(names))
	for i, name := range names {
		simple, interleave, sjf := results[3*i].Metrics, results[3*i+1].Metrics, results[3*i+2].Metrics
		out[i] = ParallelismRow{
			Name:            name,
			SimpleMRTMs:     simple.MeanResponseNs / 1e6,
			InterleaveMRTMs: interleave.MeanResponseNs / 1e6,
			SJFMRTMs:        sjf.MeanResponseNs / 1e6,
			NoWaitPct:       simple.NoWaitRatio * 100,
		}
	}
	return out, nil
}

// GCPolicyRow compares foreground and idle GC — Implication 2: the long
// inter-arrival gaps of smartphone workloads are long enough to hide
// garbage collection entirely.
type GCPolicyRow struct {
	Name              string
	ForegroundMRTMs   float64
	IdleMRTMs         float64
	ForegroundStallMs float64
	IdleStallMs       float64
	IdleAbsorbedMs    float64
}

// GC-pressure device: 128 blocks of 64 pages per plane (256 KB erase
// units, 256 MB total). Two sessions of a real trace overflow its free
// pool, and one garbage collection moves at most 64 pages (~100 ms) — the
// "completes within an inter-arrival gap" regime Implication 2 assumes.
const (
	gcPressureScaleBlocks = 8
	gcPressureScalePages  = 16
)

func gcPressureOptions(policy emmc.GCPolicy) core.Options {
	return core.Options{
		GCPolicy:    policy,
		ScaleBlocks: gcPressureScaleBlocks,
		ScalePages:  gcPressureScalePages,
	}
}

// doubledSession streams the trace followed by an identical second session
// (arrivals shifted past the first), so every page written in session one
// is overwritten — the stale data garbage collection exists to reclaim.
// Nothing is materialized: the second session replays the same stream with
// a one-second gap after the first session's last arrival.
func doubledSession(st trace.Stream) trace.Stream {
	return trace.Repeat(st, 2, 1_000_000_000)
}

// Implication2IdleGC replays two sessions of each trace on a shrunken
// device so garbage collection actually fires, under both GC policies.
func Implication2IdleGC(env *Env, names ...string) ([]GCPolicyRow, error) {
	if len(names) == 0 {
		names = []string{paper.Twitter, paper.GoogleMaps}
	}
	var jobs []ReplayJob
	for _, name := range names {
		for _, policy := range []emmc.GCPolicy{emmc.GCForeground, emmc.GCIdle} {
			jobs = append(jobs, ReplayJob{
				Trace: name, Scheme: core.Scheme4PS,
				Options: gcPressureOptions(policy), PrepareStream: doubledSession,
			})
		}
	}
	results, err := env.Replays("implication2-idlegc", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]GCPolicyRow, len(names))
	for i, name := range names {
		fg, idle := results[2*i].Metrics, results[2*i+1].Metrics
		out[i] = GCPolicyRow{
			Name:              name,
			ForegroundMRTMs:   fg.MeanResponseNs / 1e6,
			ForegroundStallMs: float64(fg.GCStallNs) / 1e6,
			IdleMRTMs:         idle.MeanResponseNs / 1e6,
			IdleStallMs:       float64(idle.GCStallNs) / 1e6,
			IdleAbsorbedMs:    float64(idle.IdleGCNs) / 1e6,
		}
	}
	return out, nil
}

// BufferRow measures the device RAM buffer's read hit rate — Implication 3:
// weak localities mean a large internal buffer earns little.
type BufferRow struct {
	Name        string
	BufferMB    int
	HitRatePct  float64
	TemporalPct float64
}

// Implication3Buffer replays traces with an LRU buffer of the given sizes.
func Implication3Buffer(env *Env, sizesMB []int, names ...string) ([]BufferRow, error) {
	if len(names) == 0 {
		names = []string{paper.Twitter, paper.Facebook, paper.Movie}
	}
	if len(sizesMB) == 0 {
		sizesMB = []int{4, 64}
	}
	var jobs []ReplayJob
	var rows []BufferRow
	for _, name := range names {
		for _, mb := range sizesMB {
			opt := MeasuredDeviceOptions()
			opt.RAMBufferBytes = int64(mb) << 20
			jobs = append(jobs, ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: opt, WantStats: true})
			rows = append(rows, BufferRow{Name: name, BufferMB: mb})
		}
	}
	results, err := env.Replays("implication3-buffer", jobs)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].HitRatePct = results[i].Metrics.BufferHitRate * 100
		rows[i].TemporalPct = results[i].Stats.TemporalLocality() * 100
	}
	return rows, nil
}

// WearRow reports the erase spread and leveling cost of one wear policy —
// Implication 4: smartphone workloads' low localities spread wear naturally,
// so the simple strategy suffices and static leveling buys little for its
// extra copies.
type WearRow struct {
	Name        string
	Policy      ftl.WearPolicy
	TotalErases int
	MinErases   int
	MaxErases   int
	LevelMoves  int64
}

// Implication4Wear replays two sessions of a trace on a shrunken device
// under all three wear policies and reports the erase distributions.
func Implication4Wear(env *Env, names ...string) ([]WearRow, error) {
	if len(names) == 0 {
		names = []string{paper.Twitter, paper.GoogleMaps}
	}
	var jobs []ReplayJob
	var rows []WearRow
	for _, name := range names {
		for _, policy := range []ftl.WearPolicy{ftl.WearNone, ftl.WearRoundRobin, ftl.WearStatic} {
			opt := gcPressureOptions(emmc.GCForeground)
			opt.Wear = policy
			jobs = append(jobs, ReplayJob{
				Trace: name, Scheme: core.Scheme4PS, Options: opt,
				PrepareStream: doubledSession, Collect: true,
			})
			rows = append(rows, WearRow{Name: name, Policy: policy})
		}
	}
	results, err := env.Replays("implication4-wear", jobs)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		dev := results[i].Device
		w := dev.Wear(0)
		rows[i].TotalErases = w.TotalErases
		rows[i].MinErases = w.MinErases
		rows[i].MaxErases = w.MaxErases
		rows[i].LevelMoves = dev.FTLStats().StaticLevelMoves
	}
	return rows, nil
}

// SLCRow compares the MLC 4PS device against an SLC-mode variant —
// Implication 5: serving the dominant 4 KB requests from fast (SLC-mode)
// pages boosts overall performance at a capacity cost.
type SLCRow struct {
	Name     string
	MLCMRTMs float64
	SLCMRTMs float64
}

// SLCModeTiming returns Table V timing with SLC-mode fast pages: roughly
// half the MLC latencies, the speedup the ComboFTL literature the paper
// cites reports for fast-page-only operation (at a 50% capacity cost).
func SLCModeTiming() flash.Timing {
	tm := core.DefaultTiming()
	fast := make(map[int]flash.OpTiming, len(tm.PerPage))
	for sz, ot := range tm.PerPage {
		fast[sz] = flash.OpTiming{ReadNs: ot.ReadNs / 2, ProgramNs: ot.ProgramNs / 2}
	}
	tm.PerPage = fast
	return tm
}

// Implication5SLC replays traces on MLC timing vs SLC-mode timing.
func Implication5SLC(env *Env, names ...string) ([]SLCRow, error) {
	if len(names) == 0 {
		names = []string{paper.Messaging, paper.Twitter, paper.Email}
	}
	slc := SLCModeTiming()
	var jobs []ReplayJob
	for _, name := range names {
		jobs = append(jobs,
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.CaseStudyOptions()},
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.Options{Timing: &slc}},
		)
	}
	results, err := env.Replays("implication5-slc", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SLCRow, len(names))
	for i, name := range names {
		out[i] = SLCRow{
			Name:     name,
			MLCMRTMs: results[2*i].Metrics.MeanResponseNs / 1e6,
			SLCMRTMs: results[2*i+1].Metrics.MeanResponseNs / 1e6,
		}
	}
	return out, nil
}

// SLCCacheRow compares HPS against an "HPS+SLC" organization that runs the
// 4 KB pool in SLC mode: small (4 KB-dominant) requests land on fast pages,
// large requests on 8 KB MLC pages — combining Implications 1 and 5 at a
// capacity cost.
type SLCCacheRow struct {
	Name        string
	HPSMRTMs    float64
	HPSSLCMRTMs float64
	// CapacityGB of each organization (the SLC pool halves its share).
	HPSCapacityGB    float64
	HPSSLCCapacityGB float64
}

// SLCCacheConfig builds the HPS variant whose 4 KB pool runs in SLC mode:
// the same 512 four-KB blocks per plane, but only the fast page of each
// MLC pair is programmable, so the pool keeps 512 of 1024 pages per block.
func SLCCacheConfig() emmc.Config {
	cfg := core.DeviceConfig(core.SchemeHPS, core.CaseStudyOptions())
	cfg.Pools[1].SLCMode = true
	cfg.Pools[1].PagesPerBlock /= 2
	return cfg
}

// Implication5SLCCache replays traces on HPS vs the SLC-cache hybrid.
func Implication5SLCCache(env *Env, names ...string) ([]SLCCacheRow, error) {
	if len(names) == 0 {
		names = []string{paper.Messaging, paper.Twitter, paper.GoogleMaps}
	}
	hpsGB := float64(core.DeviceConfig(core.SchemeHPS, core.CaseStudyOptions()).CapacityBytes()) / (1 << 30)
	slcGB := float64(SLCCacheConfig().CapacityBytes()) / (1 << 30)
	var jobs []ReplayJob
	for _, name := range names {
		jobs = append(jobs,
			ReplayJob{Trace: name, Scheme: core.SchemeHPS, Options: core.CaseStudyOptions()},
			// Each job builds its own device from a fresh config.
			ReplayJob{Trace: name, Scheme: core.SchemeHPS, Device: func() (storage.Device, error) {
				return emmc.New(SLCCacheConfig())
			}},
		)
	}
	results, err := env.Replays("implication5-slccache", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SLCCacheRow, len(names))
	for i, name := range names {
		out[i] = SLCCacheRow{
			Name:             name,
			HPSCapacityGB:    hpsGB,
			HPSSLCCapacityGB: slcGB,
			HPSMRTMs:         results[2*i].Metrics.MeanResponseNs / 1e6,
			HPSSLCMRTMs:      results[2*i+1].Metrics.MeanResponseNs / 1e6,
		}
	}
	return out, nil
}

// RenderSLCCache renders the HPS vs HPS+SLC comparison.
func RenderSLCCache(rows []SLCCacheRow) *report.Table {
	t := report.NewTable("Extension: HPS with an SLC-mode 4KB pool (Implications 1+5)",
		"Trace", "HPS MRT(ms)", "HPS+SLC MRT(ms)", "Capacity GB")
	for _, r := range rows {
		t.AddRow(r.Name, report.F(r.HPSMRTMs, 2), report.F(r.HPSSLCMRTMs, 2),
			report.F(r.HPSCapacityGB, 0)+" vs "+report.F(r.HPSSLCCapacityGB, 0))
	}
	return t
}

// MapCacheRow measures DFTL-style mapping-cache behaviour — the realistic
// face of Implication 3: an eMMC's small controller RAM caches only part of
// the mapping table, and the workloads' weak locality bounds the hit rate.
type MapCacheRow struct {
	Name          string
	CacheKB       int
	HitRatePct    float64
	MRTMs         float64
	MapReadsPer1k float64 // translation-page reads per 1000 host requests
}

// Implication3MapCache sweeps mapping-cache sizes on the 4PS device.
func Implication3MapCache(env *Env, sizesKB []int, names ...string) ([]MapCacheRow, error) {
	if len(names) == 0 {
		names = []string{paper.Twitter, paper.GoogleMaps}
	}
	if len(sizesKB) == 0 {
		sizesKB = []int{16, 64, 256}
	}
	var jobs []ReplayJob
	var rows []MapCacheRow
	for _, name := range names {
		for _, kb := range sizesKB {
			opt := core.CaseStudyOptions()
			opt.MapCacheBytes = int64(kb) << 10
			jobs = append(jobs, ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: opt})
			rows = append(rows, MapCacheRow{Name: name, CacheKB: kb})
		}
	}
	results, err := env.Replays("implication3-mapcache", jobs)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		dev := results[i].Device
		rows[i].HitRatePct = dev.MapCacheStats().HitRate() * 100
		rows[i].MRTMs = results[i].Metrics.MeanResponseNs / 1e6
		rows[i].MapReadsPer1k = float64(dev.Metrics().MapReads) / float64(results[i].Metrics.Served) * 1000
	}
	return rows, nil
}

// RenderMapCache renders the sweep.
func RenderMapCache(rows []MapCacheRow) *report.Table {
	t := report.NewTable("Implication 3 (realistic): DFTL mapping-cache size sweep (4PS)",
		"Trace", "Cache KB", "Hit rate %", "MRT (ms)", "T-reads /1k reqs")
	for _, r := range rows {
		t.AddRow(r.Name, report.I(r.CacheKB), report.F(r.HitRatePct, 1),
			report.F(r.MRTMs, 2), report.F(r.MapReadsPer1k, 1))
	}
	return t
}

// RenderAblations renders all implication studies into one table set.
func RenderAblations(p1 []ParallelismRow, p2 []GCPolicyRow, p3 []BufferRow, p4 []WearRow, p5 []SLCRow) []*report.Table {
	t1 := report.NewTable("Implication 1: parallelism and host scheduling (4PS MRT, ms)",
		"Trace", "Simple ctrl", "Interleaving ctrl", "Host SJF queue", "NoWait%")
	for _, r := range p1 {
		t1.AddRow(r.Name, report.F(r.SimpleMRTMs, 2), report.F(r.InterleaveMRTMs, 2),
			report.F(r.SJFMRTMs, 2), report.F(r.NoWaitPct, 0))
	}
	t2 := report.NewTable("Implication 2: GC policy (shrunken device)",
		"Trace", "FG MRT(ms)", "Idle MRT(ms)", "FG stall(ms)", "Idle stall(ms)", "Absorbed(ms)")
	for _, r := range p2 {
		t2.AddRow(r.Name, report.F(r.ForegroundMRTMs, 2), report.F(r.IdleMRTMs, 2),
			report.F(r.ForegroundStallMs, 1), report.F(r.IdleStallMs, 1), report.F(r.IdleAbsorbedMs, 1))
	}
	t3 := report.NewTable("Implication 3: RAM buffer hit rates",
		"Trace", "Buffer MB", "Hit rate %", "Temporal locality %")
	for _, r := range p3 {
		t3.AddRow(r.Name, report.I(r.BufferMB), report.F(r.HitRatePct, 1), report.F(r.TemporalPct, 1))
	}
	t4 := report.NewTable("Implication 4: wear spread by leveling policy",
		"Trace", "Policy", "Total erases", "Min/block", "Max/block", "Level moves")
	for _, r := range p4 {
		t4.AddRow(r.Name, r.Policy.String(), report.I(r.TotalErases),
			report.I(r.MinErases), report.I(r.MaxErases), report.I(r.LevelMoves))
	}
	t5 := report.NewTable("Implication 5: SLC-mode fast pages (4PS MRT, ms)",
		"Trace", "MLC", "SLC-mode")
	for _, r := range p5 {
		t5.AddRow(r.Name, report.F(r.MLCMRTMs, 2), report.F(r.SLCMRTMs, 2))
	}
	return []*report.Table{t1, t2, t3, t4, t5}
}

// ablationTables runs the five Implication studies and their extensions (the
// mapping cache, the SD card, the SLC-mode 4 KB pool) and renders them in
// that order.
func ablationTables(env *Env) ([]*report.Table, error) {
	p1, err := Implication1Parallelism(env)
	if err != nil {
		return nil, err
	}
	p2, err := Implication2IdleGC(env)
	if err != nil {
		return nil, err
	}
	p3, err := Implication3Buffer(env, nil)
	if err != nil {
		return nil, err
	}
	p4, err := Implication4Wear(env)
	if err != nil {
		return nil, err
	}
	p5, err := Implication5SLC(env)
	if err != nil {
		return nil, err
	}
	mc, err := Implication3MapCache(env, nil)
	if err != nil {
		return nil, err
	}
	sd, err := Implication1SDCard(env)
	if err != nil {
		return nil, err
	}
	slc, err := Implication5SLCCache(env)
	if err != nil {
		return nil, err
	}
	return append(RenderAblations(p1, p2, p3, p4, p5), RenderMapCache(mc), RenderSDCard(sd), RenderSLCCache(slc)), nil
}

// RatePoint is one point of the arrival-rate sensitivity sweep: the trace's
// arrivals compressed by Factor (0.5 = twice the original request rate).
type RatePoint struct {
	Factor   float64
	Rate     float64 // resulting requests per second
	MRT4PSMs float64
	MRTHPSMs float64
}

// Reduction returns HPS's MRT reduction at this point.
func (p RatePoint) Reduction() float64 {
	if p.MRT4PSMs == 0 {
		return 0
	}
	return 1 - p.MRTHPSMs/p.MRT4PSMs
}

// RateSweep studies where the page-size advantage starts to matter: as the
// arrival rate rises (Factor shrinks), 4PS saturates first and HPS's
// queueing headroom turns the modest per-request gain into a large MRT gap —
// the crossover structure behind Fig. 8's spread.
func RateSweep(env *Env, name string, factors []float64) ([]RatePoint, error) {
	if len(factors) == 0 {
		factors = []float64{1.0, 0.5, 0.25, 0.125}
	}
	base := env.Trace(name)
	out := make([]RatePoint, len(factors))
	var jobs []ReplayJob
	for i, f := range factors {
		out[i] = RatePoint{Factor: f}
		// The rate comes from the scaled arrivals before any replay.
		scaled := base.Scale(f)
		if d := scaled.Duration(); d > 0 {
			out[i].Rate = float64(len(scaled.Reqs)) / (float64(d) / 1e9)
		}
		prep := func(st trace.Stream) trace.Stream { return trace.ScaleStream(st, f) }
		jobs = append(jobs,
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.CaseStudyOptions(), PrepareStream: prep},
			ReplayJob{Trace: name, Scheme: core.SchemeHPS, Options: core.CaseStudyOptions(), PrepareStream: prep},
		)
	}
	results, err := env.Replays("ratesweep", jobs)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].MRT4PSMs = results[2*i].Metrics.MeanResponseNs / 1e6
		out[i].MRTHPSMs = results[2*i+1].Metrics.MeanResponseNs / 1e6
	}
	return out, nil
}

// RenderRateSweep renders the sweep.
func RenderRateSweep(name string, pts []RatePoint) *report.Table {
	t := report.NewTable("Rate sensitivity: "+name+" arrivals compressed",
		"Factor", "Rate (/s)", "4PS MRT(ms)", "HPS MRT(ms)", "Reduction")
	for _, p := range pts {
		t.AddRow(report.F(p.Factor, 3), report.F(p.Rate, 1),
			report.F(p.MRT4PSMs, 2), report.F(p.MRTHPSMs, 2),
			"-"+report.Pct(p.Reduction(), 1)+"%")
	}
	return t
}
