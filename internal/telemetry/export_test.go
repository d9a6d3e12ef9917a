package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./internal/telemetry` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func exportFixture() (*Registry, *Tracer) {
	r := NewRegistry()
	r.Counter("emmc_requests_total", L("op", "read")).Add(3)
	r.Counter("emmc_requests_total", L("op", "write")).Add(5)
	r.Counter("ftl_erases_total").Add(2)
	r.Gauge("sim_queue_depth").Set(4)
	h := r.Histogram("core_service_ns", []int64{1000, 2000, 4000}, L("op", "read"))
	for _, v := range []int64{500, 1500, 1500, 3000, 9000} {
		h.Observe(v)
	}
	tr := NewTracer(16)
	tr.Span(tr.Key("core", "requests/read", "request", L("lba", "8"), L("bytes", "4096")), 1_000, 161_000)
	tr.Span(tr.Key("emmc", "channel/0", "xfer"), 1_500, 50_000)
	tr.Instant(tr.Key("ftl", "gc", "erase", L("moves", "3")), 80_000)
	return r, tr
}

func TestGoldenPrometheus(t *testing.T) {
	r, _ := exportFixture()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Structural spot-checks independent of the golden bytes.
	for _, want := range []string{
		"# TYPE emmc_requests_total counter",
		`emmc_requests_total{op="read"} 3`,
		"# TYPE core_service_ns histogram",
		`core_service_ns_bucket{op="read",le="1000"} 1`,
		`core_service_ns_bucket{op="read",le="2000"} 3`,
		`core_service_ns_bucket{op="read",le="+Inf"} 5`,
		`core_service_ns_sum{op="read"} 15500`,
		`core_service_ns_count{op="read"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	goldenCompare(t, "metrics.golden.prom", buf.Bytes())
}

func TestGoldenChromeTrace(t *testing.T) {
	_, tr := exportFixture()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The document must be valid JSON with the trace_event envelope.
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 process_name + 3 thread_name metadata + 3 events.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d trace events, want 7:\n%s", len(doc.TraceEvents), buf.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 4 || phases["X"] != 2 || phases["i"] != 1 {
		t.Fatalf("phase mix %v", phases)
	}
	goldenCompare(t, "trace.golden.json", buf.Bytes())
}

func TestChromeTraceNilTracer(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer export not JSON: %v", err)
	}
}
