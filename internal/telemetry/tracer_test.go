package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(8)
	tr.Span(tr.Key("core", "requests/read", "request", L("lba", "8")), 100, 200)
	tr.Instant(tr.Key("ftl", "gc", "erase"), 150)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Kind != SpanEvent || evs[0].Begin != 100 || evs[0].End != 200 {
		t.Fatalf("span event %+v", evs[0])
	}
	if evs[0].Layer != "core" || evs[0].Track != "requests/read" || evs[0].Name != "request" ||
		len(evs[0].Labels) != 1 || evs[0].Labels[0] != L("lba", "8") {
		t.Fatalf("span event %+v lost its key", evs[0])
	}
	if evs[1].Kind != InstantEvent || evs[1].Begin != 150 || evs[1].End != 150 || evs[1].Labels != nil {
		t.Fatalf("instant event %+v", evs[1])
	}
	if tr.Dropped() != 0 || tr.Len() != 2 || tr.Cap() != 8 {
		t.Fatalf("dropped=%d len=%d cap=%d", tr.Dropped(), tr.Len(), tr.Cap())
	}
}

func TestTracerWraparoundDropsOldestFirst(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Span(tr.Key("core", "t", fmt.Sprintf("ev%d", i)), int64(i), int64(i+1))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want capacity 4", len(evs))
	}
	// The four newest survive, oldest first.
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", 6+i)
		if ev.Name != want {
			t.Fatalf("event %d is %q, want %q", i, ev.Name, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerCountSpans(t *testing.T) {
	tr := NewTracer(16)
	read := tr.Key("core", "requests/read", "request")
	tr.Span(read, 0, 1)
	tr.Span(tr.Key("core", "requests/write", "request"), 1, 2)
	tr.Span(tr.Key("emmc", "channel/0", "xfer"), 0, 1)
	tr.Instant(read, 5) // instants do not count
	if n := tr.CountSpans("core", "request"); n != 2 {
		t.Fatalf("CountSpans(core, request) = %d", n)
	}
	if n := tr.CountSpans("", ""); n != 3 {
		t.Fatalf("CountSpans(all) = %d", n)
	}
}

func TestTracerNilAndBackwardSpan(t *testing.T) {
	var tr *Tracer
	k := tr.Key("a", "b", "c")
	tr.Span(k, 0, 1) // no panic
	tr.Instant(k, 0)
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Cap() != 0 {
		t.Fatal("nil tracer should be inert")
	}
	real := NewTracer(2)
	real.Span(real.Key("a", "b", "c"), 10, 5) // end before begin clamps
	if ev := real.Events()[0]; ev.End != 10 {
		t.Fatalf("backward span end = %d, want clamp to 10", ev.End)
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	if NewTracer(0).Cap() != DefaultTracerCapacity {
		t.Fatal("default capacity not applied")
	}
}

// TestTracerKeyInterning checks that a tuple maps to one key however often
// it is resolved, and that any difference in the tuple, labels included,
// gives a new key.
func TestTracerKeyInterning(t *testing.T) {
	tr := NewTracer(4)
	a := tr.Key("nand", "channel/0", "read+xfer", L("page", "4K"))
	if b := tr.Key("nand", "channel/0", "read+xfer", L("page", "4K")); b != a {
		t.Fatalf("same tuple interned twice: %d, %d", a, b)
	}
	distinct := []SpanKey{
		a,
		tr.Key("nand", "channel/0", "read+xfer", L("page", "8K")),
		tr.Key("nand", "channel/0", "read+xfer"),
		tr.Key("nand", "channel/1", "read+xfer", L("page", "4K")),
		tr.Key("nand", "channel/0", "xfer-out", L("page", "4K")),
		tr.Key("ftl", "channel/0", "read+xfer", L("page", "4K")),
		tr.Key("nand", "channel/0", "read+xfer", L("page", "4K"), L("op", "r")),
	}
	seen := map[SpanKey]bool{}
	for _, k := range distinct {
		if seen[k] {
			t.Fatalf("key %d issued for two tuples: %v", k, distinct)
		}
		seen[k] = true
	}
}

// TestTracerRecordIsAllocationFree holds the hot path to its contract:
// recording a span or an instant allocates nothing, and a ring entry is
// 24 bytes.
func TestTracerRecordIsAllocationFree(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 24 {
		t.Fatalf("ring entry is %d bytes, want 24", size)
	}
	tr := NewTracer(64)
	k := tr.Key("nand", "plane/3", "program", L("page", "8K"))
	var at int64
	if n := testing.AllocsPerRun(1000, func() {
		tr.Span(k, at, at+10)
		tr.Instant(k, at)
		at++
	}); n != 0 {
		t.Fatalf("recording allocates %.1f objects per span+instant, want 0", n)
	}
}

// TestBatchMatchesDirect holds a batch to the tracer it batches for: the
// same records, published at arbitrary points, leave the ring holding
// exactly what recording directly leaves, including the wraparound and
// the dropped count, at capacities below, at and above one batch.
func TestBatchMatchesDirect(t *testing.T) {
	for _, capacity := range []int{1, 3, 7, batchEntries - 1, batchEntries, batchEntries + 9, 1_000} {
		for _, n := range []int{0, 1, batchEntries - 1, batchEntries, batchEntries + 1, 1_234} {
			rnd := rand.New(rand.NewSource(int64(capacity*10_000 + n)))
			direct, ring := NewTracer(capacity), NewTracer(capacity)
			batch := ring.Batch()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("ev%d", i%5)
				if i%3 == 0 {
					direct.Instant(direct.Key("l", "t", name), int64(i))
					batch.Instant(batch.Key("l", "t", name), int64(i))
				} else {
					direct.Span(direct.Key("l", "t", name), int64(i), int64(i+2))
					batch.Span(batch.Key("l", "t", name), int64(i), int64(i+2))
				}
				if rnd.Intn(50) == 0 {
					batch.Flush()
				}
			}
			batch.Flush()
			if got, want := ring.Events(), direct.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d, %d records: batched ring holds %v, want %v", capacity, n, got, want)
			}
			if got, want := ring.Dropped(), direct.Dropped(); got != want {
				t.Fatalf("cap %d, %d records: batched ring dropped %d, want %d", capacity, n, got, want)
			}
		}
	}
}

// TestBatchPublishesWholeBatches pins when a batch's records become
// visible: not before batchEntries of them (or a Flush), then all at once.
// A batch interns its keys on its tracer and reads as its tracer.
func TestBatchPublishesWholeBatches(t *testing.T) {
	tr := NewTracer(0)
	b := tr.Batch()
	k := b.Key("core", "requests/read", "request")
	if k != tr.Key("core", "requests/read", "request") {
		t.Fatal("a batch's key differs from its tracer's")
	}
	for i := 0; i < batchEntries-1; i++ {
		b.Span(k, int64(i), int64(i+1))
	}
	if n := tr.Len(); n != 0 {
		t.Fatalf("the ring holds %d records before a batch filled, want 0", n)
	}
	b.Span(k, 0, 1)
	if n := tr.Len(); n != batchEntries {
		t.Fatalf("the ring holds %d records after one full batch, want %d", n, batchEntries)
	}
	b.Instant(k, 5)
	b.Flush()
	if b.Len() != tr.Len() || b.Cap() != tr.Cap() || b.Dropped() != tr.Dropped() ||
		b.CountSpans("core", "") != tr.CountSpans("core", "") || len(b.Events()) != batchEntries+1 {
		t.Fatal("a batch does not read as its tracer")
	}
	if bb := b.Batch(); bb.parent != tr {
		t.Fatal("a batch of a batch does not publish into the tracer")
	}
	var nilTr *Tracer
	if nilTr.Batch() != nil {
		t.Fatal("a nil tracer's batch is not nil")
	}
	nilTr.Flush()
	if n := testing.AllocsPerRun(1000, func() {
		b.Span(k, 1, 2)
		b.Instant(k, 3)
	}); n != 0 {
		t.Fatalf("recording into a batch allocates %.1f objects per span+instant, want 0", n)
	}
}
