package experiments

import (
	"fmt"
	"math"

	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/flash"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/storage"
	"emmcio/internal/workload"
)

// GCThresholdRow is one point of the free-block-threshold sweep.
type GCThresholdRow struct {
	Threshold int
	MRTMs     float64
	StallMs   float64
	Erases    int
}

// GCThresholdSweep studies the SSD-style GC trigger Implication 2
// critiques: on a GC-pressured replay, an eager (high) threshold collects
// earlier and more often; a lazy (low) one defers work into bigger stalls.
func GCThresholdSweep(env *Env, name string, thresholds []int) ([]GCThresholdRow, error) {
	if name == "" {
		name = paper.Twitter
	}
	if len(thresholds) == 0 {
		thresholds = []int{1, 2, 8, 32}
	}
	jobs := make([]ReplayJob, len(thresholds))
	for i, th := range thresholds {
		opt := gcPressureOptions(emmc.GCForeground)
		opt.GCFreeBlocks = th
		jobs[i] = ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: opt, PrepareStream: doubledSession}
	}
	results, err := env.Replays("gc-threshold", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]GCThresholdRow, len(thresholds))
	for i, th := range thresholds {
		m := results[i].Metrics
		out[i] = GCThresholdRow{
			Threshold: th,
			MRTMs:     m.MeanResponseNs / 1e6,
			StallMs:   float64(m.GCStallNs) / 1e6,
			Erases:    results[i].Device.FTLStats().GC.Erases,
		}
	}
	return out, nil
}

// RenderGCThreshold renders the sweep.
func RenderGCThreshold(name string, rows []GCThresholdRow) *report.Table {
	t := report.NewTable("GC free-block threshold sweep ("+name+", GC-pressured 4PS)",
		"Threshold", "MRT (ms)", "GC stalls (ms)", "Erases")
	for _, r := range rows {
		t.AddRow(report.I(r.Threshold), report.F(r.MRTMs, 3), report.F(r.StallMs, 1), report.I(r.Erases))
	}
	return t
}

// PoolRatioRow is one HPS design point: how the per-plane block budget is
// split between the 4 KB and 8 KB pools (capacity held at 32 GB).
type PoolRatioRow struct {
	Blocks4K int
	Blocks8K int
	MRTMs    float64
	// GCStallMs surfaces pressure when one pool is undersized for its
	// traffic share.
	GCStallMs float64
}

// HPSPoolRatioSweep explores the design space around Table V's 512+256
// split on a GC-pressured replay: too few 4 KB blocks and the dominant
// single-page writes thrash that pool's GC; too few 8 KB blocks and large
// requests lose their fast path.
func HPSPoolRatioSweep(env *Env, name string, splits [][2]int) ([]PoolRatioRow, error) {
	if name == "" {
		name = paper.Twitter
	}
	if len(splits) == 0 {
		// Per-plane (4K blocks, 8K blocks) pairs, all 4 GB/plane. More
		// extreme splits starve one pool outright on the scaled device.
		splits = [][2]int{{576, 224}, {512, 256}, {384, 320}, {128, 448}}
	}
	jobs := make([]ReplayJob, len(splits))
	for i, sp := range splits {
		n4, n8 := sp[0], sp[1]
		if n4*4+n8*8 != 4096 { // MB per plane with 1024-page blocks
			return nil, fmt.Errorf("split %d+%d violates the 4 GB/plane budget", n4, n8)
		}
		jobs[i] = ReplayJob{
			Trace:         name,
			Scheme:        core.SchemeHPS,
			PrepareStream: doubledSession,
			Device: func() (storage.Device, error) {
				cfg := core.DeviceConfig(core.SchemeHPS, gcPressureOptions(emmc.GCForeground))
				// Rebuild pools at the requested split, preserving the
				// GC-pressure scaling (divide both counts like scalePool would).
				cfg.Pools = []flash.PoolSpec{
					{PageBytes: 8192, BlocksPerPlane: max(4, n8/gcPressureScaleBlocks), PagesPerBlock: cfg.Pools[0].PagesPerBlock},
					{PageBytes: 4096, BlocksPerPlane: max(4, n4/gcPressureScaleBlocks), PagesPerBlock: cfg.Pools[1].PagesPerBlock},
				}
				return emmc.New(cfg)
			},
		}
	}
	results, err := env.Replays("hps-pool-ratio", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]PoolRatioRow, len(splits))
	for i, sp := range splits {
		m := results[i].Metrics
		out[i] = PoolRatioRow{
			Blocks4K:  sp[0],
			Blocks8K:  sp[1],
			MRTMs:     m.MeanResponseNs / 1e6,
			GCStallMs: float64(m.GCStallNs) / 1e6,
		}
	}
	return out, nil
}

// RenderPoolRatio renders the design sweep.
func RenderPoolRatio(name string, rows []PoolRatioRow) *report.Table {
	t := report.NewTable("HPS pool-ratio design sweep ("+name+", GC-pressured)",
		"4K blocks/plane", "8K blocks/plane", "MRT (ms)", "GC stalls (ms)")
	for _, r := range rows {
		t.AddRow(report.I(r.Blocks4K), report.I(r.Blocks8K), report.F(r.MRTMs, 3), report.F(r.GCStallMs, 1))
	}
	return t
}

// ProfilesTable dumps every workload profile's calibration parameters —
// the reproduction's equivalent of publishing its trace-generation recipe.
func ProfilesTable() *report.Table {
	t := report.NewTable("Workload profile calibration (targets from Tables III/IV)",
		"Profile", "Reqs", "Dur(s)", "Write%", "R KB", "W KB", "MaxKB", "p4", "burstFrac", "burstMs", "spatial", "temporal")
	for _, p := range workload.All() {
		t.AddRow(p.Name,
			report.I(p.Requests), report.F(p.DurationSec, 0),
			report.F(p.WriteFrac*100, 1), report.F(p.MeanReadKB, 1), report.F(p.MeanWriteKB, 1),
			report.I(int64(p.MaxKB)), report.F(p.P4, 3),
			report.F(p.BurstFrac, 2), report.F(p.BurstMeanMs, 1),
			report.F(p.Spatial, 3), report.F(p.Temporal, 3))
	}
	return t
}

// CQRow compares the FIFO eMMC 4.51 interface against an eMMC 5.1-style
// command queue on one trace.
type CQRow struct {
	Name      string
	FIFOMRTMs float64
	CQMRTMs   float64
	NoWaitPct float64
}

// CommandQueueStudy measures what a command queue would have bought the
// paper's workloads: with most requests already served on an idle device
// (Characteristic 3), very little — except on the saturated traces.
func CommandQueueStudy(env *Env, names ...string) ([]CQRow, error) {
	if len(names) == 0 {
		names = []string{paper.Messaging, paper.Twitter, paper.Movie, paper.Booting}
	}
	cqOpt := core.CaseStudyOptions()
	cqOpt.CommandQueue = true
	jobs := make([]ReplayJob, 0, 2*len(names))
	for _, name := range names {
		jobs = append(jobs,
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: core.CaseStudyOptions()},
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: cqOpt})
	}
	results, err := env.Replays("command-queue", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]CQRow, len(names))
	for i, name := range names {
		fifo, cq := results[2*i].Metrics, results[2*i+1].Metrics
		out[i] = CQRow{
			Name:      name,
			FIFOMRTMs: fifo.MeanResponseNs / 1e6,
			CQMRTMs:   cq.MeanResponseNs / 1e6,
			NoWaitPct: fifo.NoWaitRatio * 100,
		}
	}
	return out, nil
}

// RenderCQ renders the study.
func RenderCQ(rows []CQRow) *report.Table {
	t := report.NewTable("Command queue (eMMC 5.1-style) vs FIFO (4PS MRT, ms)",
		"Trace", "FIFO", "Command queue", "NoWait %")
	for _, r := range rows {
		t.AddRow(r.Name, report.F(r.FIFOMRTMs, 2), report.F(r.CQMRTMs, 2), report.F(r.NoWaitPct, 0))
	}
	return t
}

// GeometryRow is one device-geometry design point.
type GeometryRow struct {
	Channels  int
	PlanesPer int
	MRTMs     float64
}

// GeometrySweep varies channel count (capacity and die/plane structure held
// proportional) to test the paper's premise that a 2-channel controller is
// the right cost point: more channels barely move smartphone MRT.
func GeometrySweep(env *Env, name string, channels []int) ([]GeometryRow, error) {
	if name == "" {
		name = paper.Twitter
	}
	if len(channels) == 0 {
		channels = []int{1, 2, 4}
	}
	planesFor := func(ch int) int {
		cfg := core.DeviceConfig(core.Scheme4PS, core.CaseStudyOptions())
		cfg.Geometry.Channels = ch
		return cfg.Geometry.Planes()
	}
	jobs := make([]ReplayJob, len(channels))
	for i, ch := range channels {
		jobs[i] = ReplayJob{
			Trace:  name,
			Scheme: core.Scheme4PS,
			Device: func() (storage.Device, error) {
				cfg := core.DeviceConfig(core.Scheme4PS, core.CaseStudyOptions())
				cfg.Geometry.Channels = ch
				// Hold total capacity at 32 GB: blocks per plane scales
				// inversely with the plane count.
				planes := cfg.Geometry.Planes()
				cfg.Pools[0].BlocksPerPlane = int(32 << 30 / int64(planes) / int64(cfg.Pools[0].PagesPerBlock) / int64(cfg.Pools[0].PageBytes))
				return emmc.New(cfg)
			},
		}
	}
	results, err := env.Replays("geometry", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]GeometryRow, len(channels))
	for i, ch := range channels {
		out[i] = GeometryRow{Channels: ch, PlanesPer: planesFor(ch), MRTMs: results[i].Metrics.MeanResponseNs / 1e6}
	}
	return out, nil
}

// RenderGeometry renders the sweep.
func RenderGeometry(name string, rows []GeometryRow) *report.Table {
	t := report.NewTable("Channel-count sweep ("+name+", 4PS, capacity held at 32 GB)",
		"Channels", "Total planes", "MRT (ms)")
	for _, r := range rows {
		t.AddRow(report.I(r.Channels), report.I(r.PlanesPer), report.F(r.MRTMs, 2))
	}
	return t
}

// WriteBufferRow compares the §V-B setting (RAM buffer disabled) against an
// enabled write buffer, per scheme, on one trace.
type WriteBufferRow struct {
	Name          string
	Scheme        core.Scheme
	PlainMRTMs    float64
	BufferedMRTMs float64
}

// WriteBufferStudy shows why §V-B disables SSDsim's RAM buffer for the
// page-size comparison: a few MB of write-back RAM hides most of the write
// path for every scheme, compressing the very differences Fig. 8 measures.
func WriteBufferStudy(env *Env, names ...string) ([]WriteBufferRow, error) {
	if len(names) == 0 {
		names = []string{paper.Messaging, paper.Twitter}
	}
	bufOpt := core.CaseStudyOptions()
	bufOpt.WriteBufferBytes = 4 << 20
	schemes := []core.Scheme{core.Scheme4PS, core.SchemeHPS}
	var jobs []ReplayJob
	for _, name := range names {
		for _, s := range schemes {
			jobs = append(jobs,
				ReplayJob{Trace: name, Scheme: s, Options: core.CaseStudyOptions()},
				ReplayJob{Trace: name, Scheme: s, Options: bufOpt})
		}
	}
	results, err := env.Replays("write-buffer", jobs)
	if err != nil {
		return nil, err
	}
	var out []WriteBufferRow
	for i, name := range names {
		for si, s := range schemes {
			base := 2 * (i*len(schemes) + si)
			out = append(out, WriteBufferRow{
				Name:          name,
				Scheme:        s,
				PlainMRTMs:    results[base].Metrics.MeanResponseNs / 1e6,
				BufferedMRTMs: results[base+1].Metrics.MeanResponseNs / 1e6,
			})
		}
	}
	return out, nil
}

// RenderWriteBuffer renders the study.
func RenderWriteBuffer(rows []WriteBufferRow) *report.Table {
	t := report.NewTable("RAM write buffer: the layer sec. V-B disables (MRT, ms)",
		"Trace", "Scheme", "Disabled (paper)", "4 MB buffer")
	for _, r := range rows {
		t.AddRow(r.Name, r.Scheme.String(), report.F(r.PlainMRTMs, 2), report.F(r.BufferedMRTMs, 2))
	}
	return t
}

// ReadAheadRow reports prefetch accuracy on one trace — Implication 3's
// spatial-locality face: a device-side read-ahead can only pay off as often
// as reads are sequential, which Table IV caps below 30% for most traces.
type ReadAheadRow struct {
	Name        string
	SpatialPct  float64
	AccuracyPct float64 // prefetch hits / prefetched sectors
	PlainMRTMs  float64
	RAMRTMs     float64
}

// ReadAheadStudy replays traces with an 8-page read-ahead into a 4 MB
// buffer and measures how often the prefetched data is actually used.
func ReadAheadStudy(env *Env, names ...string) ([]ReadAheadRow, error) {
	if len(names) == 0 {
		names = []string{paper.Movie, paper.Music, paper.Twitter}
	}
	readAheadDevice := func() (storage.Device, error) {
		cfg := core.DeviceConfig(core.Scheme4PS, MeasuredDeviceOptions())
		cfg.RAMBufferBytes = 4 << 20
		cfg.ReadAheadPages = 8
		return emmc.New(cfg)
	}
	jobs := make([]ReplayJob, 0, 2*len(names))
	for _, name := range names {
		jobs = append(jobs,
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: MeasuredDeviceOptions()},
			ReplayJob{Trace: name, Scheme: core.Scheme4PS, Device: readAheadDevice})
	}
	results, err := env.Replays("read-ahead", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]ReadAheadRow, len(names))
	for i, name := range names {
		plain, ra := results[2*i], results[2*i+1]
		row := ReadAheadRow{
			Name:       name,
			SpatialPct: paper.TableIV[name].SpatialPct,
			PlainMRTMs: plain.Metrics.MeanResponseNs / 1e6,
			RAMRTMs:    ra.Metrics.MeanResponseNs / 1e6,
		}
		prefetched, hits := ra.Device.PrefetchStats()
		if prefetched > 0 {
			row.AccuracyPct = float64(hits) / float64(prefetched) * 100
		}
		out[i] = row
	}
	return out, nil
}

// RenderReadAhead renders the study.
func RenderReadAhead(rows []ReadAheadRow) *report.Table {
	t := report.NewTable("Read-ahead prefetch: accuracy bounded by spatial locality",
		"Trace", "Spatial %", "Prefetch accuracy %", "MRT plain (ms)", "MRT +readahead (ms)")
	for _, r := range rows {
		t.AddRow(r.Name, report.F(r.SpatialPct, 1), report.F(r.AccuracyPct, 1),
			report.F(r.PlainMRTMs, 2), report.F(r.RAMRTMs, 2))
	}
	return t
}

// EnsembleResult reports the spread of the Fig. 8 headline numbers across
// independently seeded trace sets — the reproduction's error bars.
type EnsembleResult struct {
	Seeds          []uint64
	AvgReductions  []float64 // per-seed average HPS-vs-4PS MRT reduction
	BestReductions []float64
	UtilGains      []float64 // per-seed average HPS-vs-8PS utilization gain
}

// Mean and spread helpers.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std /= float64(len(xs))
	return mean, math.Sqrt(std)
}

// Fig8Ensemble runs the case study across n seeds. Each seed gets its own
// trace cache but inherits every other env setting, the context included.
func Fig8Ensemble(env *Env, n int) (EnsembleResult, error) {
	if n <= 0 {
		n = 5
	}
	var res EnsembleResult
	for i := 0; i < n; i++ {
		seed := uint64(1000 + i*7919)
		cs, err := CaseStudy(env.withSeed(seed))
		if err != nil {
			return res, err
		}
		res.Seeds = append(res.Seeds, seed)
		res.AvgReductions = append(res.AvgReductions, cs.AverageReduction())
		res.BestReductions = append(res.BestReductions, cs.Best().MRTReductionVs4PS())
		res.UtilGains = append(res.UtilGains, cs.AverageUtilGain())
	}
	return res, nil
}

// RenderEnsemble renders the spread.
func RenderEnsemble(r EnsembleResult) *report.Table {
	t := report.NewTable("Fig. 8/9 headline spread across independent trace seeds",
		"Metric", "Mean", "Std dev", "Seeds")
	m, s := meanStd(r.AvgReductions)
	t.AddRow("avg HPS MRT reduction", report.Pct(m, 1)+"%", report.Pct(s, 2)+"%", report.I(int64(len(r.Seeds))))
	m, s = meanStd(r.BestReductions)
	t.AddRow("best HPS MRT reduction", report.Pct(m, 1)+"%", report.Pct(s, 2)+"%", report.I(int64(len(r.Seeds))))
	m, s = meanStd(r.UtilGains)
	t.AddRow("avg HPS util gain vs 8PS", report.Pct(m, 1)+"%", report.Pct(s, 2)+"%", report.I(int64(len(r.Seeds))))
	return t
}
