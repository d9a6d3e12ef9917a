package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
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
