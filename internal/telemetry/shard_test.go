package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func prom(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// shardOps drives one pseudo-random sequence of observations into reg:
// counters, gauge Sets and Adds, and histograms on the default grid and a
// custom one. flush is called at random points between observations.
func shardOps(reg *Registry, seed int64, n int, flush func()) {
	rnd := rand.New(rand.NewSource(seed))
	ops := [2]Label{L("op", "read"), L("op", "write")}
	for i := 0; i < n; i++ {
		l := ops[rnd.Intn(2)]
		switch rnd.Intn(6) {
		case 0:
			reg.Counter("reqs_total", l).Add(int64(rnd.Intn(5)))
		case 1:
			reg.Gauge("depth").Set(int64(rnd.Intn(100)))
		case 2:
			reg.Gauge("busy_ns", l).Add(int64(rnd.Intn(100) - 30))
		case 3:
			reg.Histogram("lat_ns", nil, l).Observe(rnd.Int63n(1 << 33))
		case 4:
			reg.Histogram("size", []int64{1, 10, 100}, l).Observe(int64(rnd.Intn(300) - 50))
		case 5:
			if rnd.Intn(8) == 0 {
				flush()
			}
		}
	}
}

// TestShardFlushMatchesDirect holds a shard to the registry it is cut
// from: the same observations made through a shard, flushed at arbitrary
// points, publish exactly what observing the registry directly records,
// and nothing reaches the registry before a flush.
func TestShardFlushMatchesDirect(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		direct := NewRegistry()
		shardOps(direct, seed, 2_000, func() {})

		parent := NewRegistry()
		shard := parent.Shard()
		shardOps(shard, seed, 2_000, shard.Flush)
		shard.Flush()
		if got, want := prom(t, parent), prom(t, direct); got != want {
			t.Fatalf("seed %d: flushed shard publishes\n%s\nwant\n%s", seed, got, want)
		}
	}

	parent := NewRegistry()
	shard := parent.Shard()
	c := shard.Counter("reqs_total")
	h := shard.Histogram("lat_ns", nil)
	g := shard.Gauge("depth")
	c.Add(3)
	h.Observe(5_000)
	g.Set(7)
	g.Add(2)
	if v, n, d := parent.Counter("reqs_total").Value(), parent.Histogram("lat_ns", nil).Count(),
		parent.Gauge("depth").Value(); v != 0 || n != 0 || d != 0 {
		t.Fatalf("before Flush the parent reads counter %d, histogram count %d, gauge %d; want 0s", v, n, d)
	}
	shard.Flush()
	shard.Flush() // nothing new: a second flush publishes nothing
	if v, n, d := parent.Counter("reqs_total").Value(), parent.Histogram("lat_ns", nil).Count(),
		parent.Gauge("depth").Value(); v != 3 || n != 1 || d != 9 {
		t.Fatalf("after Flush the parent reads counter %d, histogram count %d, gauge %d; want 3, 1, 9", v, n, d)
	}
	// Adds after a published Set move the parent's gauge by their sum.
	parent.Gauge("depth").Add(100)
	g.Add(-4)
	shard.Flush()
	if d := parent.Gauge("depth").Value(); d != 105 {
		t.Fatalf("gauge after Add(-4) = %d, want 105", d)
	}
}

// TestShardSeriesAndReads pins what a shard is besides its handles: its
// handles create the parent's series at once (so the parent lists every
// series from the start, as a direct attach does), a histogram takes the
// parent's grid, reads of a shard report the parent, a shard of a shard
// publishes into the same parent, and nil and non-shard cases are inert.
func TestShardSeriesAndReads(t *testing.T) {
	parent := NewRegistry()
	parent.Histogram("lat_ns", []int64{10, 20})
	shard := parent.Shard()
	shard.Counter("reqs_total", L("op", "read"))
	shard.Gauge("depth")
	if h := shard.Histogram("lat_ns", nil); len(h.Bounds()) != 2 {
		t.Fatalf("shard histogram grid %v, want the parent's [10 20]", h.Bounds())
	}
	want := prom(t, parent)
	for _, s := range []string{"reqs_total{op=\"read\"} 0", "depth 0", "lat_ns_count 0"} {
		if !bytes.Contains([]byte(want), []byte(s)) {
			t.Fatalf("parent lacks %q after the shard resolved it:\n%s", s, want)
		}
	}
	if got := prom(t, shard); got != want {
		t.Fatalf("shard reads\n%s\nwant its parent's\n%s", got, want)
	}
	if snap := shard.Snapshot(); prom(t, snap) != want {
		t.Fatal("a shard's snapshot is not its parent's")
	}

	inner := shard.Shard()
	inner.Counter("reqs_total", L("op", "read")).Add(2)
	inner.Flush()
	if v := parent.Counter("reqs_total", L("op", "read")).Value(); v != 2 {
		t.Fatalf("a shard of a shard published %d to the parent, want 2", v)
	}

	var nilReg *Registry
	if nilReg.Shard() != nil {
		t.Fatal("a nil registry's shard is not nil")
	}
	nilReg.Flush()
	parent.Flush() // not a shard: a no-op
	if v := parent.Counter("reqs_total", L("op", "read")).Value(); v != 2 {
		t.Fatalf("Flush on a registry that is not a shard changed it: %d", v)
	}
}

// TestShardHotPathIsAllocationFree: a shard's handles and its Flush
// allocate nothing once resolved.
func TestShardHotPathIsAllocationFree(t *testing.T) {
	shard := NewRegistry().Shard()
	c := shard.Counter("reqs_total")
	h := shard.Histogram("lat_ns", nil)
	g := shard.Gauge("depth")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(123_456)
		g.Set(4)
		g.Add(1)
		shard.Flush()
	}); n != 0 {
		t.Fatalf("shard observations and flush allocate %.1f/op, want 0", n)
	}
}

// TestShardsFlushConcurrently runs one shard per goroutine into a shared
// registry, flushing as they go, while a reader exports the registry: the
// totals equal the sum of every writer's work. Run under -race.
func TestShardsFlushConcurrently(t *testing.T) {
	const writers, perWriter = 4, 5_000
	shared := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := shared.Shard()
			c := shard.Counter("ops_total")
			h := shard.Histogram("lat_ns", nil, L("w", fmt.Sprint(w)))
			g := shard.Gauge("inflight")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.Add(1)
				if i%100 == 99 {
					shard.Flush()
				}
			}
			shard.Flush()
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := shared.Counter("ops_total").Value()
			if v < last {
				t.Errorf("ops_total ran backwards: %d < %d", v, last)
				return
			}
			last = v
			var b bytes.Buffer
			if err := shared.WritePrometheus(&b); err != nil {
				t.Errorf("export while shards flush: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if v := shared.Counter("ops_total").Value(); v != writers*perWriter {
		t.Fatalf("ops_total = %d, want %d", v, writers*perWriter)
	}
	if v := shared.Gauge("inflight").Value(); v != writers*perWriter {
		t.Fatalf("inflight = %d, want %d (the sum of every shard's Adds)", v, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		if n := shared.Histogram("lat_ns", nil, L("w", fmt.Sprint(w))).Count(); n != perWriter {
			t.Fatalf("writer %d histogram count %d, want %d", w, n, perWriter)
		}
	}
}
