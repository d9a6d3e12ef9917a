package emmcio

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus ablation and micro benchmarks. Each benchmark runs the
// corresponding experiment end to end and reports its headline number as a
// custom metric, so `go test -bench=. -benchmem` both times the harness and
// regenerates the paper's results:
//
//	BenchmarkTableIII        Table III  (size statistics, 25 traces)
//	BenchmarkTableIV         Table IV   (timing statistics via BIOtracer)
//	BenchmarkFig3Throughput  Fig. 3     (throughput vs request size)
//	BenchmarkFig4SizeDist    Fig. 4     (request size distributions)
//	BenchmarkFig5RespDist    Fig. 5     (response time distributions)
//	BenchmarkFig6Interarrival Fig. 6    (inter-arrival distributions)
//	BenchmarkFig7Combos      Fig. 7     (combo-trace panels)
//	BenchmarkFig8MRT         Fig. 8     (4PS/8PS/HPS mean response time)
//	BenchmarkFig9SpaceUtil   Fig. 9     (space utilization)
//	BenchmarkBIOtracerOverhead §II-C    (tracer overhead)
//	BenchmarkAblation*       Implications 1–5
//
// The per-iteration custom metrics (e.g. hps_mrt_reduction_pct) are the
// numbers EXPERIMENTS.md records.

import (
	"bytes"
	"context"
	"testing"

	"emmcio/internal/androidstack"
	"emmcio/internal/blockdev"
	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/experiments"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/paper"
	"emmcio/internal/rng"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.TableIII(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Measured) != 25 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	var noWait float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.TableIV(env)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, m := range res.Measured[:18] {
			if m.NoWaitPct >= 63 {
				n++
			}
		}
		noWait = float64(n)
	}
	b.ReportMetric(noWait, "traces_nowait>=63%")
}

func BenchmarkFig3Throughput(b *testing.B) {
	var read4, write16m float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.Fig3(env, 4)
		if err != nil {
			b.Fatal(err)
		}
		read4 = res.Points[0].ReadMBs
		write16m = res.Points[len(res.Points)-1].WriteMBs
	}
	b.ReportMetric(read4, "read4k_MBps")
	b.ReportMetric(write16m, "write16m_MBps")
}

func BenchmarkFig4SizeDist(b *testing.B) {
	var inBand float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.Fig4(env)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for j, name := range res.Names {
			if paper.NotP4Majority[name] {
				continue
			}
			p4 := res.Dists[j].Single4KFraction()
			if p4 >= paper.Char2MinP4-0.03 && p4 <= paper.Char2MaxP4+0.03 {
				n++
			}
		}
		inBand = float64(n)
	}
	b.ReportMetric(inBand, "traces_in_char2_band")
}

func BenchmarkFig5RespDist(b *testing.B) {
	var within16 float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.Fig5(env)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, d := range res.Dists {
			fr := d.Response.Fractions()
			sum += fr[0] + fr[1] + fr[2] + fr[3]
		}
		within16 = sum / float64(len(res.Dists)) * 100
	}
	b.ReportMetric(within16, "resp_within16ms_pct")
}

func BenchmarkFig6Interarrival(b *testing.B) {
	var fatTail float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.Fig6(env)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, d := range res.Dists {
			fr := d.Interarrival.Fractions()
			if fr[len(fr)-1] > 0.20 {
				n++
			}
		}
		fatTail = float64(n)
	}
	b.ReportMetric(fatTail, "traces_gap>16ms_over20pct")
}

func BenchmarkFig7Combos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.Fig7(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dists) != 7 {
			b.Fatal("short combo set")
		}
	}
}

func BenchmarkFig8MRT(b *testing.B) {
	var avg, best, worst float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.CaseStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.AverageReduction() * 100
		best = res.Best().MRTReductionVs4PS() * 100
		worst = res.Worst().MRTReductionVs4PS() * 100
	}
	b.ReportMetric(avg, "hps_mrt_reduction_avg_pct")
	b.ReportMetric(best, "hps_mrt_reduction_best_pct")
	b.ReportMetric(worst, "hps_mrt_reduction_worst_pct")
}

func BenchmarkFig9SpaceUtil(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.CaseStudy(env)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.AverageUtilGain() * 100
	}
	b.ReportMetric(avg, "hps_util_gain_avg_pct")
}

func BenchmarkBIOtracerOverhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		res, err := experiments.TracerOverhead(env, paper.Twitter)
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.Overheads[0].RequestOverhead * 100
	}
	b.ReportMetric(overhead, "tracer_overhead_pct")
}

// Ablation benchmarks (the five Implications).

func BenchmarkAblationParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		if _, err := experiments.Implication1Parallelism(env, paper.Messaging); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIdleGC(b *testing.B) {
	var hidden float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		rows, err := experiments.Implication2IdleGC(env, paper.Twitter)
		if err != nil {
			b.Fatal(err)
		}
		hidden = rows[0].IdleAbsorbedMs
	}
	b.ReportMetric(hidden, "gc_hidden_ms")
}

func BenchmarkAblationRAMBuffer(b *testing.B) {
	var hit float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		rows, err := experiments.Implication3Buffer(env, []int{64}, paper.Twitter)
		if err != nil {
			b.Fatal(err)
		}
		hit = rows[0].HitRatePct
	}
	b.ReportMetric(hit, "buffer_hit_pct")
}

func BenchmarkAblationWearLeveling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		if _, err := experiments.Implication4Wear(env, paper.Twitter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSLCMode(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		rows, err := experiments.Implication5SLC(env, paper.Messaging)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].MLCMRTMs / rows[0].SLCMRTMs
	}
	b.ReportMetric(speedup, "slc_speedup_x")
}

// BenchmarkSweepRunner times the case study through the sweep runner at
// width 1 (inline, strict plan order) and at GOMAXPROCS. The results are
// bit-identical; only the wall clock differs.
func BenchmarkSweepRunner(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			env := experiments.NewEnv(workload.DefaultSeed)
			env.Workers = workers
			if _, err := experiments.CaseStudy(env); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial-j1", func(b *testing.B) { run(b, 1) })
	b.Run("parallel-jmax", func(b *testing.B) { run(b, 0) })
}

// Micro benchmarks of the substrates.

func BenchmarkTraceGeneration(b *testing.B) {
	prof := workload.DefaultRegistry().Lookup(paper.Twitter)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := prof.Generate(uint64(i))
		if len(tr.Reqs) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkDeviceWrite4K(b *testing.B) {
	dev, err := core.NewDevice(core.Scheme4PS, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	at := int64(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at += 10_000_000
		req := trace.Request{Arrival: at, LBA: uint64(i%100000) * 8, Size: 4096, Op: trace.Write}
		if _, err := dev.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceRead64K(b *testing.B) {
	dev, err := core.NewDevice(core.SchemeHPS, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	at := int64(0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at += 10_000_000
		req := trace.Request{Arrival: at, LBA: uint64(i%10000) * 128, Size: 65536, Op: trace.Read}
		if _, err := dev.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTLWrite overwrites a live set of 2000 LPNs drawn from a seeded
// spread over the workloads' 32 GB address space, so the mapping pays both
// its lookup cost and its sparsity cost, with GC running in steady state.
func BenchmarkFTLWrite(b *testing.B) {
	f, err := ftl.New(ftl.Config{
		Geometry:     flash.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 2},
		Pools:        []flash.PoolSpec{{PageBytes: 4096, BlocksPerPlane: 64, PagesPerBlock: 64}},
		GCFreeBlocks: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	lpns := make([]int64, 2000)
	for i := range lpns {
		lpns[i] = r.Int63N((32 << 30) / flash.SectorBytes)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Write(i%8, 0, lpns[i%len(lpns):][:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate benchmarks for the Fig. 1 stack layers.

func BenchmarkBlockLayerMerge(b *testing.B) {
	q := blockdev.NewQueue(blockdev.DefaultConfig())
	b.ReportAllocs()
	lba := uint64(0)
	for i := 0; i < b.N; i++ {
		req := trace.Request{Arrival: int64(i), LBA: lba, Size: 4096, Op: trace.Write}
		if err := q.Submit(req); err != nil {
			b.Fatal(err)
		}
		lba += 8
		if i%100 == 99 {
			q.Flush()
			lba += 1 << 20
		}
	}
}

func BenchmarkDriverPacking(b *testing.B) {
	d := blockdev.NewDriver(blockdev.DefaultConfig())
	batch := make([]trace.Request, 32)
	for i := range batch {
		batch[i] = trace.Request{Arrival: int64(i), LBA: uint64(i) * 1000, Size: 16384, Op: trace.Write}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cmds := d.Pack(batch); len(cmds) == 0 {
			b.Fatal("no commands")
		}
	}
}

func BenchmarkSQLiteRollbackTransaction(b *testing.B) {
	sink := &androidstack.TraceSink{}
	fs := androidstack.NewFS(sink)
	db, err := androidstack.OpenDB(fs, "bench.db", androidstack.Rollback)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := db.Exec([]int64{int64(i % 64)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduledReplaySJF(b *testing.B) {
	prof := workload.DefaultRegistry().Lookup(paper.Messaging)
	for i := 0; i < b.N; i++ {
		tr := prof.Generate(workload.DefaultSeed)
		dev, err := core.NewDevice(core.Scheme4PS, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sjf := core.ReplayOpts{Policy: core.SchedSJF}
		if _, err := core.Replay(context.Background(), dev, core.Scheme4PS, trace.FromSlice(tr), sjf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMapCache(b *testing.B) {
	var hit float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		rows, err := experiments.Implication3MapCache(env, []int{64}, paper.Twitter)
		if err != nil {
			b.Fatal(err)
		}
		hit = rows[0].HitRatePct
	}
	b.ReportMetric(hit, "mapcache_hit_pct")
}

func BenchmarkAblationSDCardSplit(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		rows, err := experiments.Implication1SDCard(env, paper.Music)
		if err != nil {
			b.Fatal(err)
		}
		penalty = rows[0].SplitMRTMs / rows[0].EMMCOnlyMRTMs
	}
	b.ReportMetric(penalty, "sdcard_mrt_penalty_x")
}

func BenchmarkLifetimeProjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		if _, err := experiments.Lifetime(env, paper.Twitter); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgingCurve(b *testing.B) {
	var knee float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		pts, err := experiments.Aging(env, paper.Movie, []float64{0, 1.5})
		if err != nil {
			b.Fatal(err)
		}
		knee = pts[1].RetryFactor
	}
	b.ReportMetric(knee, "retry_factor_at_150pct")
}

func BenchmarkCompressedCodec(b *testing.B) {
	tr := workload.DefaultRegistry().Lookup(paper.Twitter).Generate(workload.DefaultSeed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.WriteCompressed(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadCompressed(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWriteBuffer(b *testing.B) {
	var hidden float64
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		rows, err := experiments.WriteBufferStudy(env, paper.Messaging)
		if err != nil {
			b.Fatal(err)
		}
		hidden = 1 - rows[0].BufferedMRTMs/rows[0].PlainMRTMs
	}
	b.ReportMetric(hidden*100, "writebuf_mrt_cut_pct")
}

func BenchmarkAblationCommandQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(workload.DefaultSeed)
		if _, err := experiments.CommandQueueStudy(env, paper.Messaging); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceSnapshot(b *testing.B) {
	dev, err := core.NewDevice(core.SchemeHPS, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.DefaultRegistry().Lookup(paper.CallIn).Generate(workload.DefaultSeed)
	if _, err := core.Replay(context.Background(), dev, core.SchemeHPS, trace.FromSlice(tr), core.ReplayOpts{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := dev.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := emmc.RestoreSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
