package telemetry

import (
	"sync"
	"testing"
)

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", L("op", "read"))
	b := r.Counter("reqs_total", L("op", "read"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("reqs_total", L("op", "write"))
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
	// Label order must not matter.
	h1 := r.Histogram("lat_ns", []int64{10}, L("op", "read"), L("size", "4K"))
	h2 := r.Histogram("lat_ns", nil, L("size", "4K"), L("op", "read"))
	if h1 != h2 {
		t.Fatal("label order must not create a second histogram")
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(5)
	r.Histogram("z", nil).Observe(7)
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
	r.EachCounter(func(string, int64) { t.Fatal("nil registry visited a counter") })
	r.EachGauge(func(string, int64) { t.Fatal("nil registry visited a gauge") })
	r.EachHistogram(func(string, *Histogram) { t.Fatal("nil registry visited a histogram") })
}

// TestConcurrentIncrements exercises handle lookup, counter increments,
// gauge updates, and histogram observation from many goroutines; run under
// `go test -race` this is the package's data-race proof.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(128)
	op := tr.Key("test", "w", "op")
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			g := r.Gauge("depth")
			h := r.Histogram("lat_ns", []int64{10, 100, 1000})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i % 1500))
				if i%100 == 0 {
					tr.Span(op, int64(i), int64(i+1))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat_ns", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if tr.Len()+int(tr.Dropped()) != workers*perWorker/100 {
		t.Fatalf("tracer recorded %d+%d events", tr.Len(), tr.Dropped())
	}
}
