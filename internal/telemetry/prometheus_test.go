package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"emmcio/internal/rng"
)

// referencePrometheus renders r the straightforward way, one fmt call per
// line, as the exposition format reads: the byte-for-byte contract that
// WritePrometheus's buffer-appending renderer must meet.
func referencePrometheus(r *Registry) string {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	series := func(family, labels string) string {
		if labels == "" {
			return family
		}
		return family + "{" + labels + "}"
	}
	sorted := func(keys []metricKey) []metricKey {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].family != keys[j].family {
				return keys[i].family < keys[j].family
			}
			return keys[i].labels < keys[j].labels
		})
		return keys
	}
	section := func(keys []metricKey, typ string, emit func(metricKey)) {
		last := ""
		for _, k := range sorted(keys) {
			if k.family != last {
				fmt.Fprintf(w, "# TYPE %s %s\n", k.family, typ)
				last = k.family
			}
			emit(k)
		}
	}
	var keys []metricKey
	for k := range r.counters {
		keys = append(keys, k)
	}
	section(keys, "counter", func(k metricKey) {
		fmt.Fprintf(w, "%s %d\n", series(k.family, k.labels), r.counters[k].Value())
	})
	keys = nil
	for k := range r.gauges {
		keys = append(keys, k)
	}
	section(keys, "gauge", func(k metricKey) {
		fmt.Fprintf(w, "%s %d\n", series(k.family, k.labels), r.gauges[k].Value())
	})
	keys = nil
	for k := range r.hists {
		keys = append(keys, k)
	}
	section(keys, "histogram", func(k metricKey) {
		h := r.hists[k]
		le := func(bound string) string {
			if k.labels == "" {
				return `le="` + bound + `"`
			}
			return k.labels + `,le="` + bound + `"`
		}
		counts := h.BucketCounts()
		var cum int64
		for i, bound := range h.Bounds() {
			cum += counts[i]
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", k.family, le(fmt.Sprint(bound)), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", k.family, le("+Inf"), cum)
		fmt.Fprintf(w, "%s %d\n", series(k.family+"_sum", k.labels), h.Sum())
		fmt.Fprintf(w, "%s %d\n", series(k.family+"_count", k.labels), h.Count())
	})
	w.Flush()
	return buf.String()
}

// randomRegistry builds a registry of up to n series over a few shared
// family names, so families mix label sets and one name can be both a
// counter and a gauge. Label sets range from none to several keys given
// out of order, with values that need escaping; some histograms use the
// default grid, some a custom one, and some observe nothing.
func randomRegistry(g *rng.Rand, n int) *Registry {
	families := []string{"emmc_requests_total", "ftl_gc", "q", "sim_depth", "lat_ns"}
	values := []string{"read", "write", `a"b`, `back\slash`, "line\nbreak", "", "4K"}
	keys := []string{"op", "size", "channel", "pool", "a"}
	r := NewRegistry()
	for i := g.IntN(n + 1); i > 0; i-- {
		family := families[g.IntN(len(families))]
		labels := make([]Label, g.IntN(4))
		for j := range labels {
			labels[j] = L(keys[g.IntN(len(keys))]+fmt.Sprint(j), values[g.IntN(len(values))])
		}
		switch g.IntN(3) {
		case 0:
			r.Counter(family, labels...).Add(g.Int63N(1 << 40))
		case 1:
			r.Gauge(family, labels...).Set(g.Int63N(1<<20) - 1<<19)
		default:
			var bounds []int64
			if g.Bool(0.5) {
				bounds = []int64{1, 10, 100 + g.Int63N(900), 1 << 40}
			}
			h := r.Histogram(family, bounds, labels...)
			for k := g.IntN(20); k > 0; k-- {
				h.Observe(g.Int63N(1 << 33))
			}
		}
	}
	return r
}

// TestPrometheusMatchesReference compares WritePrometheus with the fmt
// reference over generated registries, from empty to a few hundred series.
func TestPrometheusMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		g := rng.New(seed)
		r := randomRegistry(g, int(seed))
		var got bytes.Buffer
		if err := r.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if want := referencePrometheus(r); got.String() != want {
			t.Fatalf("seed %d: exposition differs from the reference\n--- got ---\n%s\n--- want ---\n%s",
				seed, got.String(), want)
		}
	}
	r, _ := exportFixture()
	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if want := referencePrometheus(r); got.String() != want {
		t.Fatalf("fixture exposition differs from the reference\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// jobSizedRegistry is shaped like one replay job's registry: per-op
// counters and default-grid latency histograms, per-channel and per-pool
// gauges, scaled by channels.
func jobSizedRegistry(channels int) *Registry {
	r := NewRegistry()
	for _, op := range []string{"read", "write", "flush"} {
		r.Counter("core_requests_total", L("op", op)).Add(1000)
		r.Counter("emmc_bytes_total", L("op", op)).Add(4096 * 1000)
		for _, stage := range []string{"request", "queue", "service"} {
			h := r.Histogram("core_"+stage+"_ns", nil, L("op", op))
			for v := int64(1); v < 1<<32; v *= 3 {
				h.Observe(v)
			}
		}
	}
	for ch := 0; ch < channels; ch++ {
		r.Gauge("emmc_channel_busy_ns", L("channel", fmt.Sprint(ch))).Set(int64(ch) * 1e6)
		r.Counter("nand_programs_total", L("channel", fmt.Sprint(ch)), L("pool", "slc")).Add(int64(ch))
	}
	r.Gauge("ftl_wear_spread_erases", L("pool", "0")).Set(3)
	return r
}

// TestWritePrometheusAllocationBudget: once the exposition pool is warm, a
// scrape allocates per response, not per series, at any registry size. The
// fmt-based renderer this replaced made 1,188, 1,223 and 2,463 allocations
// on these three registries.
func TestWritePrometheusAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	for _, channels := range []int{1, 8, 256} {
		r := jobSizedRegistry(channels)
		allocs := testing.AllocsPerRun(50, func() {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%d channels: WritePrometheus made %.1f allocations, budget 4", channels, allocs)
		}
	}
}

// TestConcurrentScrapes: scrapes of different registries share the
// exposition pool from several goroutines at once, and each still gets
// exactly its own registry's exposition.
func TestConcurrentScrapes(t *testing.T) {
	regs := []*Registry{jobSizedRegistry(1), jobSizedRegistry(64), randomRegistry(rng.New(9), 300)}
	want := make([]string, len(regs))
	for i, r := range regs {
		want[i] = referencePrometheus(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(regs)
				var got bytes.Buffer
				if err := regs[i].WritePrometheus(&got); err != nil {
					t.Error(err)
					return
				}
				if got.String() != want[i] {
					t.Errorf("goroutine %d scrape %d of registry %d differs from the reference", g, n, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
