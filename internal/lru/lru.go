// Package lru is the simulator's one least-recently-used cache. The eMMC
// RAM read buffer, the DFTL mapping cache, the Android page cache and the
// experiments' generated-trace cache all keep their recency order here.
package lru

import "math"

// none ends a list of slots.
const none = -1

// Cache holds at most a fixed number of entries and evicts the least
// recently used one to make room. Entries live in an arena linked by slot
// index, found through a map from key to slot. Nothing is reserved from the
// capacity: the arena and the map grow with the entries held, and a full
// cache reuses the evicted entry's slot, so a warm cache allocates nothing.
// A Cache is not safe for concurrent use.
type Cache[K comparable, V any] struct {
	capacity int
	index    map[K]int32
	nodes    []node[K, V]
	head     int32 // most recently used slot
	tail     int32 // least recently used slot
	free     int32 // slots Remove released, linked through next
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// New returns an empty cache of at most capacity entries. It panics when
// capacity is below 1.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity below 1")
	}
	return &Cache[K, V]{
		capacity: min(capacity, math.MaxInt32), // slots are int32
		index:    map[K]int32{},
		head:     none,
		tail:     none,
		free:     none,
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return len(c.index) }

// Get returns the value cached for k and makes it the most recently used
// entry.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	i, ok := c.index[k]
	if !ok {
		return v, false
	}
	c.unlink(i)
	c.pushFront(i)
	return c.nodes[i].val, true
}

// Add caches v under k as the most recently used entry. A key already held
// takes the new value. A new key in a full cache first evicts the least
// recently used entry, which Add returns.
func (c *Cache[K, V]) Add(k K, v V) (evictedKey K, evictedVal V, evicted bool) {
	if i, ok := c.index[k]; ok {
		c.nodes[i].val = v
		c.unlink(i)
		c.pushFront(i)
		return evictedKey, evictedVal, false
	}
	var i int32
	switch {
	case len(c.index) >= c.capacity:
		i = c.tail
		c.unlink(i)
		evictedKey, evictedVal, evicted = c.nodes[i].key, c.nodes[i].val, true
		delete(c.index, evictedKey)
	case c.free != none:
		i = c.free
		c.free = c.nodes[i].next
	default:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node[K, V]{})
	}
	c.nodes[i].key, c.nodes[i].val = k, v
	c.index[k] = i
	c.pushFront(i)
	return evictedKey, evictedVal, evicted
}

// Remove drops k's entry, if held; the others keep their order. The freed
// slot is reused before the arena grows.
func (c *Cache[K, V]) Remove(k K) {
	i, ok := c.index[k]
	if !ok {
		return
	}
	c.unlink(i)
	delete(c.index, k)
	c.nodes[i] = node[K, V]{next: c.free} // drop references the entry held
	c.free = i
}

func (c *Cache[K, V]) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != none {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != none {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *Cache[K, V]) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = none, c.head
	if c.head != none {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}
