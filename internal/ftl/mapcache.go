package ftl

import (
	"emmcio/internal/lru"
	"emmcio/internal/telemetry"
)

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
	// groups holds the cached translation pages by group number; the value
	// is the page's dirty flag.
	groups *lru.Cache[int64, bool]

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
	return &MapCache{groupSize: TranslationEntriesPerPage, groups: lru.New[int64, bool](pages)}
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

// Access touches the mapping entry for the LPN, which must lie in
// [0, MaxLPN). dirty marks an update (a write changing the mapping). It
// returns the flash operations the access cost: reads (translation-page
// fetch on miss) and writes (dirty eviction).
func (c *MapCache) Access(lpn int64, dirty bool) (tReads, tWrites int) {
	group := lpn / c.groupSize
	if wasDirty, ok := c.groups.Get(group); ok {
		c.hits++
		c.telHits.Inc()
		if dirty && !wasDirty {
			c.groups.Add(group, true)
		}
		return 0, 0
	}
	c.misses++
	c.telMisses.Inc()
	tReads = 1 // fetch the translation page
	if _, evictedDirty, _ := c.groups.Add(group, dirty); evictedDirty {
		c.dirtyFlush++
		c.telFlush.Inc()
		tWrites = 1 // write back the dirty translation page
	}
	return tReads, tWrites
}
