package nand

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
	capacity int // in sectors
	table    map[int64]*bufNode
	head     *bufNode // most recently used
	tail     *bufNode // least recently used

	hits    int64
	lookups int64
}

type bufNode struct {
	lpn        int64
	prev, next *bufNode
}

// newRAMBuffer returns a buffer holding capBytes worth of sectors, or nil
// when capBytes is too small to hold a single sector.
func newRAMBuffer(capBytes int64) *ramBuffer {
	sectors := int(capBytes / 4096)
	if sectors < 1 {
		return nil
	}
	// The table grows with use; a hint of the full capacity would commit
	// memory for a buffer the workload never fills.
	return &ramBuffer{capacity: sectors, table: make(map[int64]*bufNode, min(sectors, 1<<16))}
}

func (b *ramBuffer) detach(n *bufNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (b *ramBuffer) pushFront(n *bufNode) {
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}

// readProbe returns whether the sector was cached, updating recency and
// allocating on miss.
func (b *ramBuffer) readProbe(lpn int64) bool {
	b.lookups++
	if n, ok := b.table[lpn]; ok {
		b.hits++
		b.detach(n)
		b.pushFront(n)
		return true
	}
	b.insert(lpn)
	return false
}

// writeAllocate caches the sector being written.
func (b *ramBuffer) writeAllocate(lpn int64) {
	if n, ok := b.table[lpn]; ok {
		b.detach(n)
		b.pushFront(n)
		return
	}
	b.insert(lpn)
}

func (b *ramBuffer) insert(lpn int64) {
	if len(b.table) >= b.capacity {
		evict := b.tail
		b.detach(evict)
		delete(b.table, evict.lpn)
	}
	n := &bufNode{lpn: lpn}
	b.table[lpn] = n
	b.pushFront(n)
}

// hitRate returns the read hit fraction so far (0 when disabled).
func (b *ramBuffer) hitRate() float64 {
	if b == nil || b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}
