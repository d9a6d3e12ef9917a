package lru

import (
	"container/list"
	"runtime"
	"testing"

	"emmcio/internal/rng"
)

// ref is the reference LRU: a container/list, most recently used first.
type ref struct {
	capacity int
	l        *list.List
	at       map[int]*list.Element
}

type refEntry struct{ k, v int }

func newRef(capacity int) *ref {
	return &ref{capacity: capacity, l: list.New(), at: map[int]*list.Element{}}
}

func (r *ref) get(k int) (int, bool) {
	e, ok := r.at[k]
	if !ok {
		return 0, false
	}
	r.l.MoveToFront(e)
	return e.Value.(refEntry).v, true
}

func (r *ref) add(k, v int) (int, int, bool) {
	if e, ok := r.at[k]; ok {
		e.Value = refEntry{k, v}
		r.l.MoveToFront(e)
		return 0, 0, false
	}
	var ek, ev int
	evicted := r.l.Len() >= r.capacity
	if evicted {
		old := r.l.Remove(r.l.Back()).(refEntry)
		delete(r.at, old.k)
		ek, ev = old.k, old.v
	}
	r.at[k] = r.l.PushFront(refEntry{k, v})
	return ek, ev, evicted
}

func (r *ref) remove(k int) {
	if e, ok := r.at[k]; ok {
		r.l.Remove(e)
		delete(r.at, k)
	}
}

// sameOrder fails unless c holds the reference's entries in the same
// recency order, walked from both ends.
func sameOrder(t testing.TB, step int, c *Cache[int, int], r *ref) {
	t.Helper()
	if c.Len() != r.l.Len() {
		t.Fatalf("step %d: Len %d, reference %d", step, c.Len(), r.l.Len())
	}
	i := c.head
	for e := r.l.Front(); e != nil; e = e.Next() {
		want := e.Value.(refEntry)
		if i == none || c.nodes[i].key != want.k || c.nodes[i].val != want.v {
			t.Fatalf("step %d: forward walk differs from the reference at %+v", step, want)
		}
		i = c.nodes[i].next
	}
	if i != none {
		t.Fatalf("step %d: forward walk longer than the reference", step)
	}
	i = c.tail
	for e := r.l.Back(); e != nil; e = e.Prev() {
		if i == none || c.nodes[i].key != e.Value.(refEntry).k {
			t.Fatalf("step %d: backward walk differs from the reference", step)
		}
		i = c.nodes[i].prev
	}
	if i != none {
		t.Fatalf("step %d: backward walk longer than the reference", step)
	}
}

// op applies one operation to both caches and fails on any disagreement.
// kind selects Get, Add, or RemoveFunc dropping one key or a third of the
// key space.
func op(t testing.TB, step int, c *Cache[int, int], r *ref, kind, k, v int) {
	t.Helper()
	switch kind % 8 {
	case 0, 1, 2:
		gv, gok := c.Get(k)
		wv, wok := r.get(k)
		if gv != wv || gok != wok {
			t.Fatalf("step %d: Get(%d) = %d,%v, reference %d,%v", step, k, gv, gok, wv, wok)
		}
	case 3, 4, 5:
		gk, gv, gok := c.Add(k, v)
		wk, wv, wok := r.add(k, v)
		if gk != wk || gv != wv || gok != wok {
			t.Fatalf("step %d: Add(%d) evicted %d,%d,%v, reference %d,%d,%v", step, k, gk, gv, gok, wk, wv, wok)
		}
	case 6:
		c.RemoveFunc(func(x int) bool { return x == k })
		r.remove(k)
	case 7:
		// Drop every key in k's residue class mod 3.
		drop := func(x int) bool { return x%3 == k%3 }
		c.RemoveFunc(drop)
		for x := range r.at {
			if drop(x) {
				r.remove(x)
			}
		}
	}
	sameOrder(t, step, c, r)
}

// TestCacheMatchesReference runs seeded mixes of every operation against
// the container/list reference, at capacities from 1 up, over key ranges
// smaller and larger than the capacity.
func TestCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 64} {
		for _, keys := range []int{2, capacity + 1, 4 * capacity} {
			c, r := New[int, int](capacity), newRef(capacity)
			g := rng.New(uint64(capacity*1000 + keys))
			for step := 0; step < 4000; step++ {
				kind := g.IntN(8)
				if kind == 7 && !g.Bool(0.05) {
					kind = 0 // keep bulk removal rare so the cache fills
				}
				op(t, step, c, r, kind, g.IntN(keys), g.IntN(1000))
			}
		}
	}
}

// TestCacheReusesRemovedSlots: slots RemoveFunc frees are taken before the
// arena grows, so the arena never outgrows the capacity.
func TestCacheReusesRemovedSlots(t *testing.T) {
	c := New[int, int](4)
	for k := 0; k < 1000; k++ {
		c.Add(k, k)
		if k%3 == 0 {
			c.RemoveFunc(func(x int) bool { return x == k-1 })
		}
	}
	if len(c.nodes) > 4 {
		t.Fatalf("arena holds %d slots for a capacity of 4", len(c.nodes))
	}
}

// TestCacheSizesNothingFromCapacity: a cache of 2^40 entries reserves no
// more than a cache of one.
func TestCacheSizesNothingFromCapacity(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() { New[int64, struct{}](1 << 40) })
	if small := testing.AllocsPerRun(10, func() { New[int64, struct{}](1) }); allocs != small {
		t.Fatalf("New(1<<40) allocates %.0f times, New(1) %.0f", allocs, small)
	}
	c := New[int64, struct{}](1 << 40)
	if cap(c.nodes) != 0 || c.capacity != 1<<31-1 {
		t.Fatalf("arena capacity %d, bound %d", cap(c.nodes), c.capacity)
	}
}

// TestCacheWarmChurnAllocFree: once the cache is full, hits, misses,
// evictions and value updates all reuse the arena and the index.
func TestCacheWarmChurnAllocFree(t *testing.T) {
	c := New[int64, bool](512)
	g := rng.New(7)
	next := func() {
		k := g.Int63N(2048)
		if _, ok := c.Get(k); !ok {
			c.Add(k, g.Bool(0.5))
		}
	}
	for i := 0; i < 200_000; i++ {
		next()
	}
	// Counted in total, not per run, so one rare growth still fails.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20_000; i++ {
		next()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("20,000 warm operations allocated %d times", n)
	}
}

func TestNewRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

// FuzzCache decodes the input into operations, three bytes each (kind,
// key, value), on a cache whose capacity is the first byte, and checks
// every step against the reference.
func FuzzCache(f *testing.F) {
	f.Add([]byte{1, 3, 1, 1, 3, 2, 2, 0, 1, 0})
	f.Add([]byte{3, 3, 1, 1, 4, 2, 2, 5, 3, 3, 0, 1, 0, 6, 2, 0, 7, 0, 0, 3, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%16)
		c, r := New[int, int](capacity), newRef(capacity)
		for step, b := 0, data[1:]; len(b) >= 3; step, b = step+1, b[3:] {
			op(t, step, c, r, int(b[0]), int(b[1]%32), int(b[2]))
		}
	})
}
