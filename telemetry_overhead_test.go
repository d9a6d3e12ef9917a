package emmcio

// The observability acceptance gate: telemetry must be free when disabled.
// Disabled instrumentation is a nil-handle check on each hot path, so the
// simulated timing must be bit-identical to an unobserved replay — the
// mean-response-time overhead is required to be under 5% and is in fact
// exactly 0. Wall-clock cost is benchmarked separately (and reported here
// when not -short) because it varies with the host; simulated time is the
// paper's metric and is deterministic.

import (
	"context"
	"math"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

func replayTwitter(t testing.TB, reg *telemetry.Registry, tc *telemetry.Tracer) core.Metrics {
	t.Helper()
	tr := workload.DefaultRegistry().Lookup(paper.Twitter).Generate(workload.DefaultSeed)
	dev, err := core.NewDevice(core.SchemeHPS, core.CaseStudyOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Replay(context.Background(), dev, core.SchemeHPS, trace.FromSlice(tr), core.ReplayOpts{Registry: reg, Tracer: tc})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTelemetryOverheadBudget(t *testing.T) {
	// Disabled telemetry (nil registry and tracer): the seed configuration.
	mOff := replayTwitter(t, nil, nil)
	// Enabled telemetry: full metrics registry plus span tracer.
	mOn := replayTwitter(t, telemetry.NewRegistry(), telemetry.NewTracer(0))

	if mOff.MeanResponseNs <= 0 {
		t.Fatal("degenerate replay")
	}
	overheadPct := math.Abs(mOn.MeanResponseNs-mOff.MeanResponseNs) / mOff.MeanResponseNs * 100
	t.Logf("mean response time: disabled=%.3fms enabled=%.3fms overhead=%.2f%% (budget 5%%)",
		mOff.MeanResponseNs/1e6, mOn.MeanResponseNs/1e6, overheadPct)
	if overheadPct >= 5 {
		t.Fatalf("telemetry mean-response-time overhead %.2f%% exceeds the 5%% budget", overheadPct)
	}
	if mOn != mOff {
		t.Fatalf("telemetry perturbed the simulation:\n  on  %+v\n  off %+v", mOn, mOff)
	}

	if testing.Short() {
		return
	}
	// Wall-clock cost, informational: simulated time is the acceptance
	// metric, but the host-time ratio shows what enabling telemetry costs.
	off := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayTwitter(b, nil, nil)
		}
	})
	on := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayTwitter(b, telemetry.NewRegistry(), telemetry.NewTracer(0))
		}
	})
	wallPct := (float64(on.NsPerOp())/float64(off.NsPerOp()) - 1) * 100
	t.Logf("wall clock per replay: disabled=%dns enabled=%dns (+%.1f%%)",
		off.NsPerOp(), on.NsPerOp(), wallPct)
}

// TestTelemetryJobScopedOverhead extends the overhead budget to the
// job-scoped model: scoping must not reopen either fast path. A child of a
// nil registry is nil (so an unobserved server's jobs replay bit-identical
// to the seed), a replay into a child is bit-identical to an unobserved
// one, and cutting a snapshot of a completed job leaves the live hot-path
// handles allocation-free.
func TestTelemetryJobScopedOverhead(t *testing.T) {
	mOff := replayTwitter(t, nil, nil)

	// Nil fast path survives scoping end to end.
	var root *telemetry.Registry
	if root.Child() != nil {
		t.Fatal("nil registry produced a non-nil child; the disabled fast path is gone")
	}
	if m := replayTwitter(t, root.Child(), nil); m != mOff {
		t.Fatalf("replay into a nil child perturbed the simulation:\n  got %+v\n  off %+v", m, mOff)
	}

	// A job observing into a child must not shift simulated time either.
	parent := telemetry.NewRegistry()
	child := parent.Child()
	if m := replayTwitter(t, child, nil); m != mOff {
		t.Fatalf("replay into a child registry perturbed the simulation:\n  got %+v\n  off %+v", m, mOff)
	}
	child.MergeIntoParent()
	reads := telemetry.L("op", "read")
	if got, want := parent.Counter("core_requests_total", reads).Value(),
		child.Counter("core_requests_total", reads).Value(); got != want || want == 0 {
		t.Fatalf("merge lost the job's counts: parent %d, child %d", got, want)
	}

	// A completed job's snapshot coexists with live observation at zero
	// cost: resolve the hot-loop handles once (as the replay loop does),
	// cut a snapshot, and the handles must still allocate nothing.
	c := child.Counter("core_requests_total", reads)
	h := child.Histogram("core_response_ns", nil, reads)
	g := child.Gauge("sim_queue_depth")
	snap := child.Snapshot()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(123_456)
		g.Set(4)
	}); n != 0 {
		t.Errorf("hot-path ops allocate %.1f/op after a snapshot, want 0", n)
	}
	// And the snapshot stayed a fixed record while the source moved on.
	if snap.Counter("core_requests_total", reads).Value() == c.Value() {
		t.Error("snapshot tracked the live registry; it must be a deep copy")
	}
}

func BenchmarkReplayTelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		replayTwitter(b, nil, nil)
	}
}

func BenchmarkReplayTelemetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		replayTwitter(b, telemetry.NewRegistry(), telemetry.NewTracer(0))
	}
}
