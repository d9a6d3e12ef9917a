package nand

import "emmcio/internal/lru"

// ramBuffer is a device-internal LRU cache over 4 KB sectors, used to study
// Implication 3: with the weak localities of smartphone traces (Table IV), a
// large RAM buffer inside the eMMC earns a low hit rate. The case-study
// replays (Fig. 8/9) run with the buffer disabled, exactly as the paper
// disables SSDsim's RAM buffer layer.
//
// Policy: reads probe the cache and allocate on miss; writes allocate
// (write-through — the flash program always happens, so write timing is
// unchanged and only read hits save work).
type ramBuffer struct {
	sectors *lru.Cache[int64, struct{}]

	hits    int64
	lookups int64
}

// newRAMBuffer returns a buffer holding capBytes worth of sectors, or nil
// when capBytes is too small to hold a single sector.
func newRAMBuffer(capBytes int64) *ramBuffer {
	sectors := int(capBytes / 4096)
	if sectors < 1 {
		return nil
	}
	return &ramBuffer{sectors: lru.New[int64, struct{}](sectors)}
}

// readProbe returns whether the sector was cached, updating recency and
// allocating on miss.
func (b *ramBuffer) readProbe(lpn int64) bool {
	b.lookups++
	if _, ok := b.sectors.Get(lpn); ok {
		b.hits++
		return true
	}
	b.sectors.Add(lpn, struct{}{})
	return false
}

// writeAllocate caches the sector being written.
func (b *ramBuffer) writeAllocate(lpn int64) { b.sectors.Add(lpn, struct{}{}) }

// hitRate returns the read hit fraction so far (0 when disabled).
func (b *ramBuffer) hitRate() float64 {
	if b == nil || b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}
