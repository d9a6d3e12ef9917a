package androidstack

import (
	"emmcio/internal/lru"
	"emmcio/internal/trace"
)

// pageCache is the OS page cache standing between reads and the block
// layer: Android applications re-read hot database pages from RAM, which is
// one reason the paper's block-level traces are write-dominant
// (Characteristic 1) — most reads never reach the eMMC.
type pageCache struct {
	blocks *lru.Cache[cacheKey, struct{}]

	hits   int64
	misses int64
}

type cacheKey struct {
	file  string
	block int64
}

func newPageCache(capBytes int64) *pageCache {
	blocks := int(capBytes / blockBytes)
	if blocks < 1 {
		return nil
	}
	return &pageCache{blocks: lru.New[cacheKey, struct{}](blocks)}
}

// probe returns whether the block is cached, allocating on miss.
func (c *pageCache) probe(file string, block int64) bool {
	k := cacheKey{file, block}
	if _, ok := c.blocks.Get(k); ok {
		c.hits++
		return true
	}
	c.misses++
	c.blocks.Add(k, struct{}{})
	return false
}

// fill caches a block without counting a lookup (write path population).
func (c *pageCache) fill(file string, block int64) {
	c.blocks.Add(cacheKey{file, block}, struct{}{})
}

// invalidateFile drops a deleted file's blocks, so a file recreated under
// the same name starts cold.
func (c *pageCache) invalidateFile(file string) {
	c.blocks.RemoveFunc(func(k cacheKey) bool { return k.file == file })
}

// CachedRead reads [off, off+n) through the page cache: only missing
// blocks reach the block layer, and runs of consecutive misses coalesce
// into single requests.
func (f *FS) CachedRead(name string, off, n int64) error {
	fl, ok := f.files[name]
	if !ok {
		return errMissing(name)
	}
	if n <= 0 {
		return errBadLen()
	}
	if f.cache == nil {
		return f.Read(name, off, n)
	}
	first, last, err := fl.blockSpan(name, off, n)
	if err != nil {
		return err
	}
	runStart := int64(-1)
	flush := func(end int64) error {
		if runStart < 0 {
			return nil
		}
		err := f.emit(trace.Request{
			LBA:  fl.base + uint64(runStart)*trace.SectorsPerPage,
			Size: uint32((end - runStart) * blockBytes),
			Op:   trace.Read,
		})
		runStart = -1
		return err
	}
	for b := first; b <= last; b++ {
		if f.cache.probe(name, b) {
			if err := flush(b); err != nil {
				return err
			}
			continue
		}
		if runStart < 0 {
			runStart = b
		}
	}
	return flush(last + 1)
}

// CacheHitRate returns the page-cache read hit fraction.
func (f *FS) CacheHitRate() float64 {
	if f.cache == nil || f.cache.hits+f.cache.misses == 0 {
		return 0
	}
	return float64(f.cache.hits) / float64(f.cache.hits+f.cache.misses)
}
