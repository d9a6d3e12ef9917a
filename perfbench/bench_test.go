package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// TestSeedDeterminism runs each workload twice at a tiny size with one seed
// and once with another. The exact model counters must repeat with the
// seed and change with it, which proves the seed reaches the inputs. Every
// output and layer-separation check must pass on all three runs.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		run := workloads[name]
		t.Run(name, func(t *testing.T) {
			model := func(seed uint64) []string {
				l := newLedger()
				if err := run(config{seed: seed, tiny: true}, l); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if l.failed != 0 || l.attempted == 0 {
					t.Fatalf("seed %d: %d of %d operations failed: %v", seed, l.failed, l.attempted, l.problems)
				}
				return l.model
			}
			a, b, c := model(1), model(1), model(2)
			if !slices.Equal(a, b) {
				t.Errorf("two runs with seed 1 gave different model counters:\n%v\n%v", a, b)
			}
			if slices.Equal(a, c) {
				t.Errorf("seeds 1 and 2 gave identical model counters: the seed does not reach the inputs")
			}
		})
	}
}

// TestTracedRunReconciles checks a tiny traced run of each workload prints
// every per-layer metric and CPU shares that sum to 1.
func TestTracedRunReconciles(t *testing.T) {
	for _, name := range workloadNames() {
		run := workloads[name]
		t.Run(name, func(t *testing.T) {
			l := newLedger()
			if err := run(config{seed: 3, tiny: true, traced: true, seconds: 0.2}, l); err != nil {
				t.Fatal(err)
			}
			if l.failed != 0 {
				t.Fatalf("%d operations failed: %v", l.failed, l.problems)
			}
			for _, m := range perLayer {
				if _, ok := l.metrics[m.name]; !ok {
					t.Errorf("missing per-layer metric %s", m.name)
				}
			}
			var sum float64
			for _, c := range cpuLayers {
				sum += l.metrics["cpu."+c].Value
			}
			if samples, _ := l.meta["cpu_profile_samples"].(int); samples > 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("CPU shares sum to %v, want 1", sum)
			}
		})
	}
}

// TestCPUShares profiles a busy loop and checks the decoded shares sum to 1.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no CPU samples collected")
	}
	var sum float64
	for _, c := range cpuLayers {
		sum += shares[c]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want 1 (x=%d)", shares, sum, x)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"emmcio/internal/ftl.(*FTL).Write":                      "emmcio/internal/ftl",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/maps.(*table).split":                  "internal/runtime/maps",
		"net/http.(*conn).serve":                                "net/http",
		"emmcio/internal/runner.MapContext[go.shape.int].func1": "emmcio/internal/runner",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := int64(1); i <= 10000; i++ {
		h.add(i * 100)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want)/want > 0.04 {
			t.Errorf("quantile(%v) = %v, want %v within 4%%", q, got, want)
		}
	}
}
