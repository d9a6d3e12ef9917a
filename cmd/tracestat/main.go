// Command tracestat characterizes block-level I/O traces the way §III of
// the paper does: Table III size statistics, Table IV timing statistics,
// the Fig. 4–6 distributions, and — when given the whole individual-app
// set — the six Characteristics.
//
// Every input is consumed as a stream in a single pass: file traces go
// through the streaming decoders (text, BIO1 binary, BIOZ compressed) and
// generated traces through the streaming collection path, so memory stays
// bounded regardless of trace length (blkparse conversions are the one
// format still materialized).
//
//	tracestat twitter.trace movie.trace real.blkparse
//	tracestat -generated             # analyze the 25 built-in traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"emmcio/internal/analysis"
	"emmcio/internal/biotracer"
	"emmcio/internal/cliutil"
	"emmcio/internal/experiments"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

func main() {
	generated := flag.Bool("generated", false, "analyze the 25 built-in generated traces instead of files")
	seed := flag.Uint64("seed", workload.DefaultSeed, "seed for -generated")
	dists := flag.Bool("dist", false, "also print size/response/inter-arrival distributions")
	percentiles := flag.Bool("percentiles", false, "print p50/p95/p99 service latencies per request type")
	asJSON := flag.Bool("json", false, "emit machine-readable FullReport JSON instead of tables")
	showVersion := cliutil.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println(cliutil.VersionLine("tracestat"))
		return
	}

	var all []*traceStats
	if *generated {
		reg := workload.DefaultRegistry()
		for _, name := range paper.AllTraces {
			dev, err := experiments.NewMeasuredDevice()
			if err != nil {
				fatal(err)
			}
			ts := newTraceStats(name)
			if _, err := biotracer.CollectStream(dev, reg.Lookup(name).Stream(*seed),
				func(r trace.Request) error { ts.add(r); return nil }); err != nil {
				fatal(err)
			}
			all = append(all, ts)
		}
	} else {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: tracestat [-dist] <trace file>... | tracestat -generated")
			os.Exit(2)
		}
		for _, path := range flag.Args() {
			ts, err := analyzeFile(path)
			if err != nil {
				fatal(err)
			}
			all = append(all, ts)
		}
	}

	if *asJSON {
		out := map[string]analysis.FullReport{}
		for _, ts := range all {
			out[ts.name] = ts.acc.Report()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	sizeTab := report.NewTable("Size-related statistics (Table III columns)",
		"Trace", "DataKB", "Reqs", "MaxKB", "AveKB", "AveR", "AveW", "Wr%", "WrSz%")
	timeTab := report.NewTable("Timing-related statistics (Table IV columns)",
		"Trace", "Dur(s)", "Arr(/s)", "Acc(KB/s)", "NoWait%", "Serv(ms)", "Resp(ms)", "Spat%", "Temp%")
	for _, ts := range all {
		s := ts.acc.Size()
		sizeTab.AddRow(ts.name, report.I(s.DataKB), report.I(s.Requests), report.I(int64(s.MaxKB)),
			report.F(s.AveKB, 1), report.F(s.AveReadKB, 1), report.F(s.AveWriteKB, 1),
			report.F(s.WriteReqPct, 2), report.F(s.WriteSizePct, 2))
		t := ts.acc.Timing()
		timeTab.AddRow(ts.name, report.F(t.DurationSec, 0), report.F(t.ArrivalRate, 2),
			report.F(t.AccessRate, 2), report.F(t.NoWaitPct, 0),
			report.F(t.MeanServMs, 2), report.F(t.MeanRespMs, 2),
			report.F(t.SpatialPct, 2), report.F(t.TemporalPct, 2))
	}
	must(sizeTab.WriteText(os.Stdout))
	fmt.Println()
	must(timeTab.WriteText(os.Stdout))
	fmt.Println()

	if *percentiles {
		tab := report.NewTable("Service-time percentiles by request type",
			"Trace", "Op", "Count", "p50(ms)", "p95(ms)", "p99(ms)", "Max(ms)")
		for _, ts := range all {
			for _, op := range []trace.Op{trace.Read, trace.Write} {
				h := ts.serv[op]
				if h.Count() == 0 {
					continue
				}
				name := "read"
				if op == trace.Write {
					name = "write"
				}
				tab.AddRow(ts.name, name, report.I(h.Count()),
					report.F(float64(h.Quantile(0.50))/1e6, 3),
					report.F(float64(h.Quantile(0.95))/1e6, 3),
					report.F(float64(h.Quantile(0.99))/1e6, 3),
					report.F(float64(h.Max())/1e6, 3))
			}
		}
		must(tab.WriteText(os.Stdout))
		fmt.Println()
	}

	if *dists {
		for _, ts := range all {
			d := ts.acc.Dists()
			fmt.Printf("%s:\n  size:         %s\n  response:     %s\n  interarrival: %s\n",
				ts.name, d.Size, d.Response, d.Interarrival)
			if rs := ts.acc.Response(); rs.Count > 0 {
				fmt.Printf("  response percentiles: p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
					float64(rs.P50)/1e6, float64(rs.P95)/1e6, float64(rs.P99)/1e6, float64(rs.Max)/1e6)
			}
		}
		fmt.Println()
	}

	// With the full individual set (or any 6+ traces), evaluate the six
	// characteristics.
	if len(all) >= 6 {
		individual := all
		if *generated {
			individual = all[:18]
		}
		rows := make([]analysis.TraceSummary, len(individual))
		for i, ts := range individual {
			rows[i] = ts.acc.Summary()
		}
		findings := analysis.EvaluateCharacteristicsFrom(rows)
		must(experiments.RenderFindings(findings).WriteText(os.Stdout))
	}
}

// traceStats is everything tracestat reports about one trace, accumulated
// online in a single pass.
type traceStats struct {
	name string
	acc  *analysis.Accumulator
	serv map[trace.Op]*telemetry.Histogram // service times for -percentiles
}

func newTraceStats(name string) *traceStats {
	return &traceStats{
		name: name,
		acc:  analysis.NewAccumulator(name),
		serv: map[trace.Op]*telemetry.Histogram{
			trace.Read:  telemetry.NewHistogram(telemetry.DefaultLatencyBuckets()),
			trace.Write: telemetry.NewHistogram(telemetry.DefaultLatencyBuckets()),
		},
	}
}

func (ts *traceStats) add(r trace.Request) {
	ts.acc.Add(r)
	if r.Finish > r.ServiceStart {
		ts.serv[r.Op].Observe(r.Finish - r.ServiceStart)
	}
}

// analyzeFile streams one trace file through a traceStats in a single
// decoder pass. Blkparse conversions have no streaming reader and are
// materialized, then drained.
func analyzeFile(path string) (*traceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var st trace.Stream
	if strings.HasSuffix(path, ".blktrace") || strings.HasSuffix(path, ".blkparse") {
		tr, err := trace.ReadBlkparse(f)
		if err != nil {
			return nil, err
		}
		st = trace.FromSlice(tr)
	} else {
		st, err = trace.NewDecoder(f)
		if err != nil {
			return nil, err
		}
	}
	name := st.Name()
	if name == "" {
		name = path
	}
	ts := newTraceStats(name)
	for i := 0; ; i++ {
		req, ok, err := st.Next()
		if err != nil {
			return nil, fmt.Errorf("%s: request %d: %w", path, i, err)
		}
		if !ok {
			return ts, nil
		}
		ts.add(req)
	}
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

// fatal prints a one-line diagnosis and exits 1 (multi-line aggregates are
// folded into a first-line-plus-count).
func fatal(err error) { cliutil.Fatal("tracestat", err) }
