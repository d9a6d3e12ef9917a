package ftl

import (
	"testing"

	"emmcio/internal/rng"
)

func TestMapCacheDisabled(t *testing.T) {
	if NewMapCache(0) != nil {
		t.Fatal("zero-byte cache should be nil")
	}
	if NewMapCache(100) != nil {
		t.Fatal("sub-page cache should be nil")
	}
}

func TestMapCacheGroupLocality(t *testing.T) {
	c := NewMapCache(4 * 4096)
	// First touch of a group misses and fetches one translation page.
	r, w := c.Access(0, false)
	if r != 1 || w != 0 {
		t.Fatalf("cold access cost %d/%d, want 1/0", r, w)
	}
	// Neighbors in the same 512-entry group hit.
	for lpn := int64(1); lpn < TranslationEntriesPerPage; lpn++ {
		if r, w := c.Access(lpn, false); r != 0 || w != 0 {
			t.Fatalf("lpn %d missed within a cached group", lpn)
		}
	}
	// The next group misses again.
	if r, _ := c.Access(TranslationEntriesPerPage, false); r != 1 {
		t.Fatal("new group should miss")
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != TranslationEntriesPerPage-1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMapCacheDirtyEviction(t *testing.T) {
	c := NewMapCache(2 * 4096) // two translation pages
	c.Access(0, true)          // group 0, dirty
	c.Access(512, false)       // group 1
	// Group 2 evicts group 0 (LRU), which is dirty -> write-back.
	r, w := c.Access(1024, false)
	if r != 1 || w != 1 {
		t.Fatalf("dirty eviction cost %d/%d, want 1/1", r, w)
	}
	if c.Stats().DirtyFlushes != 1 {
		t.Fatal("dirty flush not counted")
	}
	// Clean eviction costs no write.
	r, w = c.Access(1536, false)
	if r != 1 || w != 0 {
		t.Fatalf("clean eviction cost %d/%d, want 1/0", r, w)
	}
}

func TestMapCacheLRUOrder(t *testing.T) {
	c := NewMapCache(2 * 4096)
	c.Access(0, false)   // group 0
	c.Access(512, false) // group 1
	c.Access(0, false)   // touch group 0: group 1 becomes LRU
	c.Access(1024, false)
	// Group 0 must still be cached.
	if r, _ := c.Access(0, false); r != 0 {
		t.Fatal("recently used group evicted")
	}
}

func TestMapCacheHitRate(t *testing.T) {
	c := NewMapCache(8 * 4096)
	c.Access(0, false)
	c.Access(1, false)
	c.Access(2, false)
	hr := c.Stats().HitRate()
	if hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate %.3f, want 2/3", hr)
	}
}

// TestMapCacheAllocFree: once every group has been seen, hits, misses and
// dirty evictions all reuse the node arena.
func TestMapCacheAllocFree(t *testing.T) {
	c := NewMapCache(4 * 4096)
	for g := int64(0); g < 16; g++ {
		c.Access(g*TranslationEntriesPerPage, true)
	}
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Access((i%16)*TranslationEntriesPerPage+i%7, i%3 == 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm Access allocates %.2f times per call", allocs)
	}
}

// TestMapCacheMatchesReferenceLRU replays random accesses against a plain
// slice-based LRU: costs and counters must agree step for step.
func TestMapCacheMatchesReferenceLRU(t *testing.T) {
	type entry struct {
		group int64
		dirty bool
	}
	c := NewMapCache(5 * 4096)
	var ref []entry // most recent first
	r := rng.New(3)
	for step := 0; step < 5000; step++ {
		lpn := r.Int63N(12 * TranslationEntriesPerPage)
		dirty := r.Bool(0.4)
		g := lpn / TranslationEntriesPerPage
		wantR, wantW := 1, 0
		for i, e := range ref {
			if e.group == g {
				wantR = 0
				e.dirty = e.dirty || dirty
				ref = append(append([]entry{e}, ref[:i]...), ref[i+1:]...)
				break
			}
		}
		if wantR == 1 {
			if len(ref) == 5 {
				if ref[4].dirty {
					wantW = 1
				}
				ref = ref[:4]
			}
			ref = append([]entry{{g, dirty}}, ref...)
		}
		if gotR, gotW := c.Access(lpn, dirty); gotR != wantR || gotW != wantW {
			t.Fatalf("step %d: Access(%d) = %d/%d, reference LRU %d/%d", step, lpn, gotR, gotW, wantR, wantW)
		}
	}
}
