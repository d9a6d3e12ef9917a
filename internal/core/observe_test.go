package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"emmcio/internal/paper"
	"emmcio/internal/runner"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// An observed Replay must record exactly one "request" span per trace request
// and leave the replay's timing identical to the unobserved path.
func TestReplayObservedSpansAndMetrics(t *testing.T) {
	plain := smallTrace()
	mPlain, err := replayTrace(SchemeHPS, Options{}, plain)
	if err != nil {
		t.Fatal(err)
	}

	tr := smallTrace()
	reg := telemetry.NewRegistry()
	// Capacity for both spans of every request plus device-level events.
	tc := telemetry.NewTracer(8 * len(tr.Reqs))
	dev, err := NewDevice(SchemeHPS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Replay(context.Background(), dev, SchemeHPS, trace.FromSlice(tr), ReplayOpts{Registry: reg, Tracer: tc})
	if err != nil {
		t.Fatal(err)
	}

	if m != mPlain {
		t.Fatalf("telemetry changed replay results:\n  observed %+v\n  plain    %+v", m, mPlain)
	}
	if got := tc.CountSpans("core", "request"); got != int64(len(tr.Reqs)) {
		t.Fatalf("request spans %d, want %d", got, len(tr.Reqs))
	}
	if got := tc.CountSpans("core", "service"); got != int64(len(tr.Reqs)) {
		t.Fatalf("service spans %d, want %d", got, len(tr.Reqs))
	}
	if tc.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events despite sized buffer", tc.Dropped())
	}

	var reads, writes int64
	for _, r := range tr.Reqs {
		if r.Op == trace.Write {
			writes++
		} else {
			reads++
		}
	}
	if got := reg.Counter("core_requests_total", telemetry.L("op", "read")).Value(); got != reads {
		t.Fatalf("read counter %d, want %d", got, reads)
	}
	if got := reg.Counter("core_requests_total", telemetry.L("op", "write")).Value(); got != writes {
		t.Fatalf("write counter %d, want %d", got, writes)
	}
	// Device-level instrumentation rode along via SetTelemetry.
	devTotal := reg.Counter("emmc_requests_total", telemetry.L("op", "read")).Value() +
		reg.Counter("emmc_requests_total", telemetry.L("op", "write")).Value()
	if devTotal != int64(len(tr.Reqs)) {
		t.Fatalf("device request counters %d, want %d", devTotal, len(tr.Reqs))
	}

	// The Prometheus export carries the histograms.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"core_response_ns_count{op=\"read\"}",
		"core_service_ns_sum{op=\"write\"}",
		"emmc_subrequests_total{page=\"4K\"}",
		"# TYPE core_response_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus export missing %q:\n%s", want, out)
		}
	}
}

// A nil registry and tracer must leave the device untouched.
func TestReplayObservedNilTelemetry(t *testing.T) {
	tr := smallTrace()
	dev, err := NewDevice(Scheme4PS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Replay(context.Background(), dev, Scheme4PS, trace.FromSlice(tr), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ref := smallTrace()
	mRef, err := replayTrace(Scheme4PS, Options{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if m != mRef {
		t.Fatalf("nil telemetry diverged: %+v vs %+v", m, mRef)
	}
}

// countersAndHistograms is a Prometheus export without its gauge
// families: the series whose merge is a sum.
func countersAndHistograms(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	gauge := false
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			gauge = strings.HasSuffix(line, " gauge\n")
		}
		if !gauge {
			out.WriteString(line)
		}
	}
	return out.String()
}

// sortedEvents is a tracer's events as a multiset: sorted, so replays
// recorded concurrently compare with the same replays recorded apart.
func sortedEvents(tc *telemetry.Tracer) []telemetry.Event {
	evs := tc.Events()
	key := func(e telemetry.Event) string {
		return e.Layer + "|" + e.Track + "|" + e.Name + "|" + fmt.Sprint(e.Labels)
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return key(a) < key(b)
	})
	return evs
}

// TestReplayShardConservation runs four replays on a two-worker runner
// into one shared registry and tracer, each replay observing through its
// own shard and span batch. The shared registry's counters and histograms
// must equal the merge of the same four replays run solo, and the shared
// ring must hold exactly the solo rings' events.
func TestReplayShardConservation(t *testing.T) {
	apps := []string{paper.CallIn, paper.YouTube, paper.Email, paper.Messaging}
	traces := map[string]*trace.Trace{}
	requests := 0
	for _, app := range apps {
		traces[app] = workload.DefaultRegistry().Lookup(app).Generate(workload.DefaultSeed)
		requests += len(traces[app].Reqs)
	}
	replay := func(app string, reg *telemetry.Registry, tc *telemetry.Tracer) error {
		tr := traces[app]
		dev, err := NewDevice(SchemeHPS, CaseStudyOptions())
		if err != nil {
			return err
		}
		_, err = Replay(context.Background(), dev, SchemeHPS, trace.FromSlice(tr), ReplayOpts{Registry: reg, Tracer: tc})
		return err
	}
	const ring = 1 << 18 // holds all four replays' events: nothing drops

	merged := telemetry.NewRegistry()
	var solo []telemetry.Event
	for _, app := range apps {
		reg, tc := telemetry.NewRegistry(), telemetry.NewTracer(ring)
		if err := replay(app, reg, tc); err != nil {
			t.Fatal(err)
		}
		merged.Merge(reg)
		solo = append(solo, tc.Events()...)
	}

	shared, sharedTc := telemetry.NewRegistry(), telemetry.NewTracer(ring)
	if _, err := runner.Map(runner.New(2), "conservation", apps, func(_ int, app string) (struct{}, error) {
		return struct{}{}, replay(app, shared, sharedTc)
	}); err != nil {
		t.Fatal(err)
	}

	read, write := telemetry.L("op", "read"), telemetry.L("op", "write")
	for name, got := range map[string]int64{
		"core_requests_total": shared.Counter("core_requests_total", read).Value() +
			shared.Counter("core_requests_total", write).Value(),
		"emmc_requests_total": shared.Counter("emmc_requests_total", read).Value() +
			shared.Counter("emmc_requests_total", write).Value(),
		"core_response_ns_count": shared.Histogram("core_response_ns", nil, read).Count() +
			shared.Histogram("core_response_ns", nil, write).Count(),
		"core request spans": sharedTc.CountSpans("core", "request"),
	} {
		if got != int64(requests) {
			t.Fatalf("shared %s = %d, want the %d requests replayed", name, got, requests)
		}
	}
	if got, want := countersAndHistograms(t, shared), countersAndHistograms(t, merged); got != want {
		t.Fatalf("shared registry after concurrent replays:\n%s\nwant the merge of solo replays:\n%s", got, want)
	}
	if sharedTc.Dropped() != 0 {
		t.Fatalf("shared ring dropped %d events; size the ring up", sharedTc.Dropped())
	}
	soloTc := telemetry.NewTracer(ring)
	for _, e := range solo {
		k := soloTc.Key(e.Layer, e.Track, e.Name, e.Labels...)
		if e.Kind == telemetry.InstantEvent {
			soloTc.Instant(k, e.Begin)
		} else {
			soloTc.Span(k, e.Begin, e.End)
		}
	}
	if got, want := sortedEvents(sharedTc), sortedEvents(soloTc); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared ring holds %d events, the solo rings %d (or they differ)", len(got), len(want))
	}
}

// TestReplayPublishesOnReturn pins what Replay leaves behind. Everything
// a replay observed is published by the time it returns, also when it is
// canceled mid-stream; and the device is re-attached to the caller's own
// registry and tracer, so what it observes after Replay returns reaches
// them at once, with no shard left holding it.
func TestReplayPublishesOnReturn(t *testing.T) {
	tr := workload.DefaultRegistry().Lookup(paper.Messaging).Generate(workload.DefaultSeed)
	dev, err := NewDevice(SchemeHPS, CaseStudyOptions())
	if err != nil {
		t.Fatal(err)
	}
	reg, tc := telemetry.NewRegistry(), telemetry.NewTracer(1<<17)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 1_500 // past one publication period, short of the next
	served := 0
	_, err = Replay(ctx, dev, SchemeHPS, trace.FromSlice(tr), ReplayOpts{Registry: reg, Tracer: tc,
		Sink: func(trace.Request) error {
			if served++; served == stopAt {
				cancel()
			}
			return nil
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("replay error %v, want cancellation", err)
	}
	requests := func() int64 {
		return reg.Counter("core_requests_total", telemetry.L("op", "read")).Value() +
			reg.Counter("core_requests_total", telemetry.L("op", "write")).Value()
	}
	device := func() int64 {
		return reg.Counter("emmc_requests_total", telemetry.L("op", "read")).Value() +
			reg.Counter("emmc_requests_total", telemetry.L("op", "write")).Value()
	}
	if got := requests(); got != stopAt {
		t.Fatalf("canceled replay published %d core requests, want %d", got, stopAt)
	}
	if got := device(); got != stopAt {
		t.Fatalf("canceled replay published %d device requests, want %d", got, stopAt)
	}
	if got := tc.CountSpans("core", "request"); got != stopAt {
		t.Fatalf("canceled replay published %d request spans, want %d", got, stopAt)
	}

	// After Replay: the device observes straight into reg and tc.
	spans := tc.Len()
	req := tr.Reqs[stopAt]
	req.Arrival = dev.LastActivity() + 1
	if _, err := dev.Submit(req); err != nil {
		t.Fatal(err)
	}
	if got := device(); got != stopAt+1 {
		t.Fatalf("a request submitted after Replay returned reads %d device requests, want %d", got, stopAt+1)
	}
	if tc.Len() == spans {
		t.Fatal("a request submitted after Replay returned recorded no span")
	}
}
