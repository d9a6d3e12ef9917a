// Package emmcio is a full reproduction of "I/O Characteristics of
// Smartphone Applications and Their Implications for eMMC Design"
// (Zhou, Pan, Wang, Xie — IISWC 2015) as a reusable Go library.
//
// It provides, from scratch and with no dependencies beyond the standard
// library:
//
//   - calibrated synthetic workload generators for the paper's 18 smartphone
//     applications and 7 application combos (Tables III/IV, Figs. 4/6/7);
//   - a BIOtracer-equivalent block-level I/O monitor with the paper's
//     three-point timestamping and ~2% logging overhead (§II);
//   - an event-driven eMMC device simulator in the SSDsim tradition —
//     channels, dies, planes, page-mapping FTL with greedy GC and
//     round-robin wear leveling, low-power states, optional RAM buffer;
//   - the hybrid-page-size (HPS) scheme of §V alongside the pure-4KB (4PS)
//     and pure-8KB (8PS) baselines of Table V;
//   - analysis of the six Characteristics, and experiment runners that
//     regenerate every table and figure of the paper.
//
// # Quick start
//
//	tr := emmcio.GenerateTrace(emmcio.Twitter, emmcio.DefaultSeed)
//	dev, err := emmcio.NewDevice(emmcio.SchemeHPS, emmcio.CaseStudyOptions())
//	if err != nil { ... }
//	m, err := emmcio.Replay(ctx, dev, emmcio.SchemeHPS, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
//	if err != nil { ... }
//	fmt.Printf("HPS mean response time: %.2f ms\n", m.MeanResponseNs/1e6)
//
// The cmd/experiments binary prints every table and figure; EXPERIMENTS.md
// records paper-versus-measured values for each.
package emmcio

import (
	"context"
	"io"

	"emmcio/internal/analysis"
	"emmcio/internal/androidstack"
	"emmcio/internal/biotracer"
	"emmcio/internal/blockdev"
	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/experiments"
	"emmcio/internal/ftl"
	"emmcio/internal/paper"
	"emmcio/internal/reliability"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// Trace model.
type (
	// Trace is an ordered block-level I/O trace.
	Trace = trace.Trace
	// Request is one block-level I/O request with BIOtracer's timestamps.
	Request = trace.Request
	// Op is a request's access type.
	Op = trace.Op
	// TraceStream yields a trace's requests one at a time; Replay pulls
	// from one.
	TraceStream = trace.Stream
)

// Request operation kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// Trace codecs.
var (
	// ReadTraceText parses the one-request-per-line text format by
	// draining the text stream decoder; the trace name comes from the
	// "# name:" comment before the first record.
	ReadTraceText = trace.ReadText
	// WriteTraceText serializes a trace in the text format through the
	// text stream encoder.
	WriteTraceText = trace.WriteText
	// ReadTraceBinary parses the compact BIO1 record stream by draining
	// the binary stream decoder.
	ReadTraceBinary = trace.ReadBinary
	// WriteTraceBinary serializes a trace in the BIO1 format through the
	// binary stream encoder, with the real record count in the header.
	WriteTraceBinary = trace.WriteBinary
	// ReadBlkparse imports blkparse(1) text output, so real device traces
	// flow through the same analysis and replay pipelines.
	ReadBlkparse = trace.ReadBlkparse
	// MergeTraces interleaves two traces by arrival time (combo building).
	MergeTraces = trace.Merge
)

// Application and combo-trace names (Tables I and II).
const (
	Idle        = paper.Idle
	CallIn      = paper.CallIn
	CallOut     = paper.CallOut
	Booting     = paper.Booting
	Movie       = paper.Movie
	Music       = paper.Music
	AngryBirds  = paper.AngryBirds
	CameraVideo = paper.CameraVideo
	GoogleMaps  = paper.GoogleMaps
	Messaging   = paper.Messaging
	Twitter     = paper.Twitter
	Email       = paper.Email
	Facebook    = paper.Facebook
	Amazon      = paper.Amazon
	YouTube     = paper.YouTube
	Radio       = paper.Radio
	Installing  = paper.Installing
	WebBrowsing = paper.WebBrowsing

	MusicWB  = paper.MusicWB
	RadioWB  = paper.RadioWB
	MusicFB  = paper.MusicFB
	RadioFB  = paper.RadioFB
	MusicMsg = paper.MusicMsg
	RadioMsg = paper.RadioMsg
	FBMsg    = paper.FBMsg
)

// Trace rosters.
var (
	// IndividualApps lists the 18 single-application traces in paper order.
	IndividualApps = paper.IndividualApps
	// ComboApps lists the 7 combo traces in paper order.
	ComboApps = paper.ComboApps
	// AllTraces lists all 25 traces in paper order.
	AllTraces = paper.AllTraces
)

// DefaultSeed reproduces the repository's canonical 25 traces.
const DefaultSeed = workload.DefaultSeed

// Profile is a calibrated application workload model.
type Profile = workload.Profile

// Profiles returns the full registry of 25 calibrated profiles.
func Profiles() *workload.Registry { return workload.DefaultRegistry() }

// GenerateTrace synthesizes the named application's trace. It panics on an
// unknown name; use Profiles().Lookup to probe.
func GenerateTrace(name string, seed uint64) *Trace {
	p := workload.DefaultRegistry().Lookup(name)
	if p == nil {
		panic("emmcio: unknown application " + name)
	}
	return p.Generate(seed)
}

// Device model.
type (
	// StorageDevice is the backend-neutral device interface every backend
	// implements; NewDevice returns one. Concrete eMMC state (snapshots,
	// utilization breakdowns) stays on Device.
	StorageDevice = storage.Device
	// Backend selects a device implementation: "emmc" (default), "sd", "ufs".
	Backend = storage.Backend
	// DeviceCaps describes a backend's capabilities (packed-command
	// support, queue depth).
	DeviceCaps = storage.Caps
	// Device is a simulated eMMC device.
	Device = emmc.Device
	// DeviceConfig configures a device.
	DeviceConfig = emmc.Config
	// Scheme selects a Table V page-size organization.
	Scheme = core.Scheme
	// Options tweak a scheme's device for ablations.
	Options = core.Options
	// Metrics summarizes one replay.
	Metrics = core.Metrics
	// ReplayOpts are Replay's optional inputs: host-side scheduling,
	// telemetry, and a sink for the replayed requests.
	ReplayOpts = core.ReplayOpts
	// GCPolicy selects foreground or idle garbage collection.
	GCPolicy = emmc.GCPolicy
)

// The built-in device backends.
const (
	BackendEMMC = storage.BackendEMMC
	BackendSD   = storage.BackendSD
	BackendUFS  = storage.BackendUFS
)

// The three Table V schemes.
const (
	Scheme4PS = core.Scheme4PS
	Scheme8PS = core.Scheme8PS
	SchemeHPS = core.SchemeHPS
)

// Garbage-collection policies.
const (
	GCForeground = emmc.GCForeground
	GCIdle       = emmc.GCIdle
)

// WearPolicy selects the FTL wear-leveling strategy (Implication 4).
type WearPolicy = ftl.WearPolicy

// Wear-leveling policies.
const (
	WearRoundRobin = ftl.WearRoundRobin
	WearNone       = ftl.WearNone
	WearStatic     = ftl.WearStatic
)

// Device construction and replay.
var (
	// NewDevice builds a fresh device for a scheme.
	NewDevice = core.NewDevice
	// Replay runs a trace stream through a device, fresh or aged by
	// earlier replays, and returns the §V metrics. The replay loop checks
	// ctx between requests, so cancellation and deadlines abort it in
	// bounded time. The caller's trace is not modified: pass FromSlice(tr)
	// and collect the replayed timestamps with ReplayOpts.Sink.
	Replay = core.Replay
	// FromSlice streams a materialized trace without copying it.
	FromSlice = trace.FromSlice
	// CaseStudyOptions are the §V experiment settings.
	CaseStudyOptions = core.CaseStudyOptions
	// DefaultTiming is the Table V simulation latency model.
	DefaultTiming = core.DefaultTiming
)

// Analysis.
type (
	// SizeStats mirrors a Table III row.
	SizeStats = analysis.SizeStats
	// TimingStats mirrors a Table IV row.
	TimingStats = analysis.TimingStats
	// Distributions holds a trace's Figs. 4–6 histograms.
	Distributions = analysis.Distributions
	// Finding is a verdict on one of the six Characteristics.
	Finding = analysis.Finding
)

// Analysis entry points.
var (
	// SizeStatsOf measures Table III columns.
	SizeStatsOf = analysis.SizeStatsOf
	// TimingStatsOf measures Table IV columns (replayed traces).
	TimingStatsOf = analysis.TimingStatsOf
	// DistributionsOf builds the per-trace histograms.
	DistributionsOf = analysis.DistributionsOf
	// EvaluateCharacteristics checks the six Characteristics on a trace set.
	EvaluateCharacteristics = analysis.EvaluateCharacteristics
)

// Tracer exposes the BIOtracer reproduction.
type Tracer = biotracer.Tracer

// TracerOverheadReport is the §II-C overhead summary.
type TracerOverheadReport = biotracer.Overhead

// NewTracer wraps a device with a BIOtracer monitor.
func NewTracer(dev StorageDevice) *Tracer { return biotracer.New(dev) }

// CollectTrace replays a trace through a tracer on the device, filling all
// timestamps and returning the tracer overhead.
func CollectTrace(dev StorageDevice, tr *Trace) (TracerOverheadReport, error) {
	return biotracer.Collect(dev, tr)
}

// Block layer and driver (the kernel half of the paper's Fig. 1 stack).
type (
	// BlockQueue is the block-layer request queue with elevator merging.
	BlockQueue = blockdev.Queue
	// BlockDriver is the eMMC driver's packing stage.
	BlockDriver = blockdev.Driver
	// BlockStack wires queue, driver and device together.
	BlockStack = blockdev.Stack
	// BlockConfig tunes the queue and driver.
	BlockConfig = blockdev.Config
)

// Block layer construction.
var (
	// NewBlockStack assembles a block layer + driver in front of a device.
	NewBlockStack = blockdev.NewStack
	// DefaultBlockConfig mirrors an eMMC 4.5 driver.
	DefaultBlockConfig = blockdev.DefaultConfig
)

// Android upper stack (SQLite + Ext4 journaling, the amplification pipeline
// the paper's related work discusses).
type (
	// AndroidFS is the Ext4-ordered-mode file-system model.
	AndroidFS = androidstack.FS
	// SQLiteDB is a SQLite database on the AndroidFS.
	SQLiteDB = androidstack.DB
	// SQLiteJournalMode selects rollback-journal or WAL durability.
	SQLiteJournalMode = androidstack.JournalMode
	// TraceCollector is a Sink gathering emitted block requests.
	TraceCollector = androidstack.TraceSink
)

// SQLite journal modes.
const (
	SQLiteRollback = androidstack.Rollback
	SQLiteWAL      = androidstack.WAL
)

// Android stack construction.
var (
	// NewAndroidFS builds the file-system model over a request sink.
	NewAndroidFS = androidstack.NewFS
	// OpenSQLiteDB creates/opens a database on the file system.
	OpenSQLiteDB = androidstack.OpenDB
)

// Experiments expose the table/figure runners for downstream tooling.
type ExperimentEnv = experiments.Env

// NewExperimentEnv builds an experiment environment for a seed.
func NewExperimentEnv(seed uint64) *ExperimentEnv { return experiments.NewEnv(seed) }

// RunCaseStudyContext reproduces Figs. 8 and 9 and writes both tables to
// w. It records ctx on the env (Env.Ctx), so the §V sweep's replay loops
// abort between events once ctx is done; the ctx stays attached to env for
// later sweeps.
func RunCaseStudyContext(ctx context.Context, env *ExperimentEnv, w io.Writer) error {
	env.Ctx = ctx
	study, _ := experiments.Lookup("casestudy")
	outs, err := study.Run(env, nil)
	if err != nil {
		return err
	}
	for _, o := range outs {
		if err := o.Table.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Reliability exposes the wear-dependent read-retry model.
type ReliabilityModel = reliability.Model

// DefaultReliability returns the MLC-class reliability model.
func DefaultReliability() *ReliabilityModel { return reliability.Default() }

// AgingPoint is one wear level of the aging curve.
type AgingPoint = experiments.AgingPoint

// RunAgingContext replays a trace on devices pre-aged to the given
// endurance fractions and returns the read-latency aging curve. ctx is
// recorded on Env.Ctx, as in RunCaseStudyContext.
func RunAgingContext(ctx context.Context, env *ExperimentEnv, app string, lifeFractions []float64) ([]AgingPoint, error) {
	env.Ctx = ctx
	return experiments.Aging(env, app, lifeFractions)
}

// Device persistence: archive an aged device and resume it later.
var (
	// RestoreDevice rebuilds a device of the given backend from a Snapshot
	// stream (snapshot layouts are backend-specific; "" means eMMC).
	RestoreDevice = core.RestoreDevice
	// RestoreEMMCDevice rebuilds a concrete *Device from an eMMC snapshot.
	RestoreEMMCDevice = emmc.RestoreSnapshot
)

// Additional trace tooling.
var (
	// WriteTraceCompressed serializes with the delta+varint codec (several
	// times smaller than the fixed binary format for real traces).
	WriteTraceCompressed = trace.WriteCompressed
	// ReadTraceCompressed parses the BIOZ codec by draining the
	// compressed stream decoder; hostile record counts are bounded.
	ReadTraceCompressed = trace.ReadCompressed
	// StreamTraceText processes a text trace incrementally in constant
	// memory, over the same decoder as ReadTraceText.
	StreamTraceText = trace.StreamText
	// ConcatTraces joins sessions back to back with a gap.
	ConcatTraces = trace.Concat
)

// FullReport bundles a trace's complete §III characterization.
type FullReport = analysis.FullReport

// AnalyzeTrace computes the complete characterization of a replayed trace.
var AnalyzeTrace = analysis.Report

// Workload composers for building new combo traces (§III-D's two modes).
var (
	// ConcurrentCombo interleaves two applications running simultaneously.
	ConcurrentCombo = workload.Concurrent
	// SwitchingCombo alternates foreground between two applications with a
	// mean dwell time, plus a background trickle from the inactive one —
	// the FB/Msg collection protocol.
	SwitchingCombo = workload.Switching
	// ProfileFromJSON parses a JSON workload profile.
	ProfileFromJSON = workload.ReadProfileJSON
	// ProfileToJSON serializes a workload profile.
	ProfileToJSON = workload.WriteProfileJSON
)
