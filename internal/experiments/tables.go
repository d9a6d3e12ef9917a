package experiments

import (
	"context"
	"fmt"

	"emmcio/internal/analysis"
	"emmcio/internal/biotracer"
	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/paper"
	"emmcio/internal/report"
	"emmcio/internal/runner"
	"emmcio/internal/trace"
)

// TableI renders the application roster (Table I of the paper).
func TableI() *report.Table {
	defs := map[string]string{
		paper.Idle:        "Smartphone in idle state",
		paper.CallIn:      "Answering an incoming call",
		paper.CallOut:     "Making a phone call",
		paper.Booting:     "Smartphone booting process",
		paper.Movie:       "Watching a movie on the smartphone",
		paper.Music:       "Listening songs on the smartphone",
		paper.AngryBirds:  "Playing the AngryBirds game",
		paper.CameraVideo: "Recording a video clip",
		paper.GoogleMaps:  "Road map and navigation",
		paper.Messaging:   "Receiving/sending/viewing messages",
		paper.Twitter:     "Reading and posting tweets",
		paper.Email:       "Receiving/sending/viewing emails",
		paper.Facebook:    "Viewing pictures/adding comments/etc.",
		paper.Amazon:      "Mobile online shopping",
		paper.YouTube:     "Watching videos on the YouTube",
		paper.Radio:       "Listening to online radio",
		paper.Installing:  "Installing applications from Google Play",
		paper.WebBrowsing: "Reading news on the TIME website",
	}
	t := report.NewTable("Table I: Selected applications", "Application", "Definition")
	for _, name := range paper.IndividualApps {
		t.AddRow(name, defs[name])
	}
	return t
}

// TableII renders the trace-collecting protocol (Table II of the paper),
// which doubles as documentation of each generator's duration target.
func TableII() *report.Table {
	t := report.NewTable("Table II: Trace collecting details", "Trace(s)", "Protocol")
	rows := [][2]string{
		{"Idle", "10pm-6am: idle status (8.2 h)"},
		{"Booting", "30-40 seconds: launching the smartphone"},
		{"CallIn, CallOut", "~1 hour: mimicking a phone interview"},
		{"CameraVideo, AngryBirds, GoogleMaps", "0.5-1 hour: recording video, playing, navigating"},
		{"Facebook, Twitter, Amazon, Email, Messaging", "10-20 minutes: viewing, searching, composing"},
		{"WebBrowsing, YouTube, Radio, Music", "1-1.5 hours: news, videos, radio, music"},
		{"Movie, Installing", "10-17 minutes: local movie, installing via WiFi"},
		{"Combos except FB/Msg", "10-36 minutes: Facebook/Messaging/Browsing over Radio or Music"},
		{"FB/Msg", "12 minutes: Facebook, switching to Messaging per incoming message"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t
}

// UtilizationRow reports how busy the device was during one trace — the
// quantitative basis of Implications 1 and 2.
type UtilizationRow struct {
	Name          string
	DevicePct     float64
	MaxChannelPct float64
	NoWaitPct     float64
}

// DeviceUtilization replays traces on the measured device and reports busy
// fractions.
func DeviceUtilization(env *Env, names ...string) ([]UtilizationRow, error) {
	if len(names) == 0 {
		names = paper.IndividualApps
	}
	jobs := make([]ReplayJob, len(names))
	for i, name := range names {
		jobs[i] = ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: MeasuredDeviceOptions()}
	}
	results, err := env.Replays("utilization", jobs)
	if err != nil {
		return nil, err
	}
	out := make([]UtilizationRow, len(names))
	for i, name := range names {
		// Channel busy fractions are an eMMC-model detail (the measured
		// device); other backends would report through their own telemetry.
		dev, ok := results[i].Device.(*emmc.Device)
		if !ok {
			continue
		}
		u := dev.Utilization()
		row := UtilizationRow{Name: name, DevicePct: u.Device * 100, NoWaitPct: results[i].Metrics.NoWaitRatio * 100}
		for _, c := range u.Channels {
			if c*100 > row.MaxChannelPct {
				row.MaxChannelPct = c * 100
			}
		}
		out[i] = row
	}
	return out, nil
}

// RenderUtilization renders the busy fractions.
func RenderUtilization(rows []UtilizationRow) *report.Table {
	t := report.NewTable("Device utilization during each trace (measured device)",
		"Trace", "Device busy %", "Busiest channel %", "NoWait %")
	for _, r := range rows {
		t.AddRow(r.Name, report.F(r.DevicePct, 2), report.F(r.MaxChannelPct, 2), report.F(r.NoWaitPct, 0))
	}
	return t
}

// TableIIIResult pairs measured and published size statistics per trace.
type TableIIIResult struct {
	Measured  []analysis.SizeStats
	Published []paper.SizeRow
	Names     []string
}

// TableIII measures the size-related statistics of all 25 generated traces
// (Table III of the paper). No replay is involved, but generating 25 traces
// is the cost, so the per-trace analyses run on the env's worker pool.
// Env streams never fail, so the error is the env's context ending the
// sweep.
func TableIII(env *Env) (TableIIIResult, error) {
	names := paper.AllTraces
	measured, err := runner.MapContext(env.context(), env.Runner(), "tableIII", names,
		func(ctx context.Context, _ int, name string) (analysis.SizeStats, error) {
			return analysis.SizeStatsOfStream(trace.WithContext(ctx, env.Stream(name)))
		})
	if err != nil {
		return TableIIIResult{}, err
	}
	res := TableIIIResult{Names: names, Measured: measured}
	for _, name := range names {
		res.Published = append(res.Published, paper.TableIII[name])
	}
	return res, nil
}

// Render returns the side-by-side comparison table.
func (r TableIIIResult) Render() *report.Table {
	t := report.NewTable(
		"Table III: Size-related statistics (measured | paper)",
		"Application", "DataKB", "Reqs", "MaxKB", "AveKB", "AveR", "AveW", "Wr%", "WrSz%",
	)
	for i, name := range r.Names {
		m, p := r.Measured[i], r.Published[i]
		t.AddRow(name,
			fmt.Sprintf("%d|%d", m.DataKB, p.DataKB),
			fmt.Sprintf("%d|%d", m.Requests, paper.EffectiveRequests(name)),
			fmt.Sprintf("%d|%d", m.MaxKB, p.MaxKB),
			fmt.Sprintf("%.1f|%.1f", m.AveKB, p.AveKB),
			fmt.Sprintf("%.1f|%.1f", m.AveReadKB, p.AveReadKB),
			fmt.Sprintf("%.1f|%.1f", m.AveWriteKB, p.AveWriteKB),
			fmt.Sprintf("%.1f|%.1f", m.WriteReqPct, p.WriteReqPct),
			fmt.Sprintf("%.1f|%.1f", m.WriteSizePct, p.WriteSizePct),
		)
	}
	return t
}

// TableIVResult pairs measured and published timing statistics per trace.
type TableIVResult struct {
	Measured  []analysis.TimingStats
	Published []paper.TimingRow
	Names     []string
	Overheads []biotracer.Overhead
}

// TableIV replays every generated trace through BIOtracer on the
// measured-device model and computes the timing statistics of Table IV.
func TableIV(env *Env) (TableIVResult, error) {
	names := paper.AllTraces
	jobs := make([]ReplayJob, len(names))
	for i, name := range names {
		jobs[i] = ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: MeasuredDeviceOptions(),
			Collect: true, WantStats: true}
	}
	results, err := env.Replays("tableIV", jobs)
	if err != nil {
		return TableIVResult{}, err
	}
	res := TableIVResult{Names: names}
	for i, name := range names {
		res.Measured = append(res.Measured, results[i].Stats.Timing())
		res.Published = append(res.Published, paper.TableIV[name])
		res.Overheads = append(res.Overheads, results[i].Overhead)
	}
	return res, nil
}

// Render returns the side-by-side comparison table.
func (r TableIVResult) Render() *report.Table {
	t := report.NewTable(
		"Table IV: Timing-related statistics (measured | paper)",
		"Application", "Dur(s)", "Arr(/s)", "Acc(KB/s)", "NoWait%", "Serv(ms)", "Resp(ms)", "Spat%", "Temp%",
	)
	for i, name := range r.Names {
		m, p := r.Measured[i], r.Published[i]
		t.AddRow(name,
			fmt.Sprintf("%.0f|%.0f", m.DurationSec, p.DurationSec),
			fmt.Sprintf("%.2f|%.2f", m.ArrivalRate, p.ArrivalRate),
			fmt.Sprintf("%.1f|%.1f", m.AccessRate, p.AccessRate),
			fmt.Sprintf("%.0f|%.0f", m.NoWaitPct, p.NoWaitPct),
			fmt.Sprintf("%.2f|%.2f", m.MeanServMs, p.MeanServMs),
			fmt.Sprintf("%.2f|%.2f", m.MeanRespMs, p.MeanRespMs),
			fmt.Sprintf("%.1f|%.1f", m.SpatialPct, p.SpatialPct),
			fmt.Sprintf("%.1f|%.1f", m.TemporalPct, p.TemporalPct),
		)
	}
	return t
}

// TableV renders the three simulated device configurations.
func TableV() *report.Table {
	t := report.NewTable("Table V: Configurations of the three eMMC devices",
		"Parameter", "4PS", "8PS", "HPS")
	rows := [][4]string{
		{"Page read latency (us)", "160", "244", "160/244"},
		{"Page write latency (us)", "1385", "1491", "1385/1491"},
		{"Block erase latency (us)", "3800", "3800", "3800"},
		{"Channel x chip x die x plane", "2x1x2x2", "2x1x2x2", "2x1x2x2"},
		{"Blocks per plane", "1024", "512", "512x4KB + 256x8KB"},
		{"Pages per block", "1024", "1024", "1024"},
		{"Total capacity", "32 GB", "32 GB", "32 GB"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	// Cross-check against the live configurations.
	for _, s := range core.Schemes {
		if core.DeviceConfig(s, core.Options{}).CapacityBytes() != 32<<30 {
			panic("experiments: Table V capacity drifted from 32 GB for " + s.String())
		}
	}
	return t
}

// OverheadResult is the §II-C tracer overhead analysis.
type OverheadResult struct {
	Names     []string
	Overheads []biotracer.Overhead
}

// TracerOverhead measures BIOtracer's §II-C overhead on a few long traces.
func TracerOverhead(env *Env, names ...string) (OverheadResult, error) {
	if len(names) == 0 {
		names = []string{paper.Twitter, paper.GoogleMaps, paper.Installing}
	}
	jobs := make([]ReplayJob, len(names))
	for i, name := range names {
		jobs[i] = ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: MeasuredDeviceOptions(), Collect: true}
	}
	results, err := env.Replays("tracer-overhead", jobs)
	if err != nil {
		return OverheadResult{}, err
	}
	res := OverheadResult{Names: names}
	for i := range results {
		res.Overheads = append(res.Overheads, results[i].Overhead)
	}
	return res, nil
}

// Render returns the overhead table.
func (r OverheadResult) Render() *report.Table {
	t := report.NewTable("BIOtracer overhead (sec. II-C; paper reports ~2%)",
		"Trace", "Monitored", "Flushes", "Extra I/Os", "Overhead%")
	for i, name := range r.Names {
		o := r.Overheads[i]
		t.AddRow(name, report.I(o.MonitoredRequests), report.I(o.Flushes),
			report.I(o.ExtraRequests), report.Pct(o.RequestOverhead, 2))
	}
	return t
}

// Characteristics replays the 18 individual traces on the measured device
// and evaluates the paper's six characteristics on the results. Each replay
// streams through an online accumulator — no trace is materialized.
func Characteristics(env *Env) ([]analysis.Finding, error) {
	names := paper.IndividualApps
	jobs := make([]ReplayJob, len(names))
	for i, name := range names {
		jobs[i] = ReplayJob{Trace: name, Scheme: core.Scheme4PS, Options: MeasuredDeviceOptions(),
			Collect: true, WantStats: true}
	}
	results, err := env.Replays("characteristics", jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.TraceSummary, len(results))
	for i := range results {
		rows[i] = results[i].Stats.Summary()
	}
	return analysis.EvaluateCharacteristicsFrom(rows), nil
}

// RenderFindings renders characteristic findings as a table.
func RenderFindings(findings []analysis.Finding) *report.Table {
	t := report.NewTable("The six characteristics (sec. III)", "#", "Claim", "Holds", "Evidence")
	for _, f := range findings {
		holds := "yes"
		if !f.Holds {
			holds = "NO"
		}
		t.AddRow(report.I(f.ID), f.Claim, holds, f.Evidence)
	}
	return t
}
