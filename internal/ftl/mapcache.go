package ftl

import "emmcio/internal/telemetry"

// MapCache models the DFTL-style cached mapping table a real eMMC
// controller uses: the full sector map lives in flash (translation pages),
// and only a small RAM cache of mapping entries is held in the controller —
// eMMC devices carry far less RAM than SSDs (§I of the paper).
//
// A lookup or update that misses the cache costs a translation-page read
// (and, for evicted dirty entries, a translation-page write). The device
// model charges those as extra flash operations, so weak temporal locality
// (Characteristic 5 / Implication 3) shows up as real latency.
//
// The cache maps translation-page-sized groups of consecutive LPNs (one
// 4 KB translation page covers 512 eight-byte entries), which is how DFTL
// amortizes locality: one miss caches a whole neighborhood.
type MapCache struct {
	// entries per translation page: 4096 B / 8 B per mapping entry.
	groupSize int64
	// nodes is the LRU list, a fixed arena of one entry per cached
	// translation page (its capacity is the cache size), linked by
	// index (nilNode ends the list); slot[g] is 1 + the node caching group
	// g (0: not cached), grown to the highest group touched. A miss reuses
	// the tail node, so a warm cache allocates nothing.
	nodes      []mapNode
	slot       []int32
	head, tail int32

	hits       int64
	misses     int64
	dirtyFlush int64

	telHits   *telemetry.Counter
	telMisses *telemetry.Counter
	telFlush  *telemetry.Counter
}

// SetTelemetry attaches hit/miss/write-back counters
// (ftl_mapcache_{hits,misses,dirty_writebacks}_total). Safe on a nil cache
// (mapping RAM unlimited) and with a nil registry (detach).
func (c *MapCache) SetTelemetry(reg *telemetry.Registry) {
	if c == nil {
		return
	}
	if reg == nil {
		c.telHits, c.telMisses, c.telFlush = nil, nil, nil
		return
	}
	c.telHits = reg.Counter("ftl_mapcache_hits_total")
	c.telMisses = reg.Counter("ftl_mapcache_misses_total")
	c.telFlush = reg.Counter("ftl_mapcache_dirty_writebacks_total")
}

type mapNode struct {
	group      int64
	dirty      bool
	prev, next int32
}

const nilNode = -1

// TranslationEntriesPerPage is DFTL's fan-out: a 4 KB translation page
// holds 512 eight-byte mapping entries.
const TranslationEntriesPerPage = 512

// NewMapCache builds a cache holding capBytes of translation pages.
// Returns nil (no caching — mapping always hits, as if RAM were unlimited)
// when capBytes <= 0.
func NewMapCache(capBytes int64) *MapCache {
	pages := int(min(capBytes/4096, MaxLPN/TranslationEntriesPerPage)) // no more pages than the address space has
	if pages < 1 {
		return nil
	}
	return &MapCache{
		groupSize: TranslationEntriesPerPage,
		nodes:     make([]mapNode, 0, pages),
		head:      nilNode,
		tail:      nilNode,
	}
}

// MapCacheStats reports cache activity.
type MapCacheStats struct {
	Hits         int64
	Misses       int64
	DirtyFlushes int64
}

// HitRate returns the fraction of lookups served from RAM.
func (s MapCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns accumulated statistics.
func (c *MapCache) Stats() MapCacheStats {
	return MapCacheStats{Hits: c.hits, Misses: c.misses, DirtyFlushes: c.dirtyFlush}
}

func (c *MapCache) detach(i int32) {
	n := &c.nodes[i]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
}

func (c *MapCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == nilNode {
		c.tail = i
	}
}

// Access touches the mapping entry for the LPN, which must lie in
// [0, MaxLPN). dirty marks an update (a write changing the mapping). It
// returns the flash operations the access cost: reads (translation-page
// fetch on miss) and writes (dirty eviction).
func (c *MapCache) Access(lpn int64, dirty bool) (tReads, tWrites int) {
	group := lpn / c.groupSize
	if group < int64(len(c.slot)) && c.slot[group] != 0 {
		i := c.slot[group] - 1
		c.hits++
		c.telHits.Inc()
		c.nodes[i].dirty = c.nodes[i].dirty || dirty
		c.detach(i)
		c.pushFront(i)
		return 0, 0
	}
	c.misses++
	c.telMisses.Inc()
	tReads = 1 // fetch the translation page
	var i int32
	if len(c.nodes) < cap(c.nodes) {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, mapNode{prev: nilNode, next: nilNode})
	} else {
		i = c.tail
		c.detach(i)
		evict := &c.nodes[i]
		c.slot[evict.group] = 0
		if evict.dirty {
			c.dirtyFlush++
			c.telFlush.Inc()
			tWrites = 1 // write back the dirty translation page
		}
	}
	if group >= int64(len(c.slot)) {
		c.slot = append(c.slot, make([]int32, int(group)+1-len(c.slot))...)
	}
	c.nodes[i].group, c.nodes[i].dirty = group, dirty
	c.slot[group] = i + 1
	c.pushFront(i)
	return tReads, tWrites
}
