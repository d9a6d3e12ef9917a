package nand

import (
	"emmcio/internal/flash"
	"emmcio/internal/trace"
)

// The stage is the write-back FIFO both devices put in front of the FTL:
// the eMMC model's RAM write buffer (SSDsim's "RAM buffer", which §V-B of
// the paper disables for the case study) and the UFS model's SLC
// WriteBooster. Writes are acknowledged once their payload is staged and
// reach the FTL later — during idle gaps, like the idle-GC policy, or
// synchronously when the stage fills or a flush barrier arrives. The two
// differ only in where staged data lives (Params.SLCStage), which prices a
// read of it and a destage. Ordering is a slice queue of chunks whose LPNs
// live in one ring; a set of the staged sectors answers read hits.

// staged is one chunk awaiting destage: its n LPNs are ring[off:off+n]
// of the stage. The pool is fixed at admission by the write splitter, so
// destage order cannot change where data lands.
type staged struct {
	pool, off, n int
}

// stage is the FIFO of chunks awaiting destage.
type stage struct {
	capBytes  int64
	usedBytes int64
	// queue[head:] holds the pending chunks in FIFO order; popped slots are
	// compacted away once the drained prefix dominates, so the backing array
	// stays bounded by the peak queue depth.
	queue []staged
	head  int
	// ring holds the pending chunks' LPNs, each chunk contiguous, in FIFO
	// order from the oldest chunk's offset, wrapping to 0 at most once: a
	// chunk that would straddle the ring's end starts at 0 instead. The
	// ring starts empty and doubles when a chunk finds no room, so
	// admitting a chunk allocates nothing in steady state.
	ring []int64
	// index holds the staged (not yet destaged) sectors for read hits. It
	// is sized by what is staged, not by capBytes, which a configuration
	// may set far beyond memory.
	index lpnSet

	hits   int64
	misses int64
}

// stageRingMin is the smallest ring, in LPNs.
const stageRingMin = 16

// newStage builds a stage, or returns nil (disabled) below one page.
func newStage(capBytes int64) *stage {
	if capBytes < trace.PageSize {
		return nil
	}
	return &stage{capBytes: capBytes}
}

// pending reports the queued chunk count.
func (s *stage) pending() int { return len(s.queue) - s.head }

// holds reports whether the sector is staged.
func (s *stage) holds(lpn int64) bool { return s.index.has(lpn) }

// lpns returns chunk c's LPNs in the ring. They stay valid until the next
// add.
func (s *stage) lpns(c staged) []int64 { return s.ring[c.off : c.off+c.n : c.off+c.n] }

// add stages a chunk of pool, copying lpns into the ring.
func (s *stage) add(pool int, lpns []int64) {
	off := s.place(len(lpns))
	copy(s.ring[off:], lpns)
	s.push(staged{pool: pool, off: off, n: len(lpns)})
}

// push queues chunk c, whose LPNs are already in the ring.
func (s *stage) push(c staged) {
	s.queue = append(s.queue, c)
	for _, lpn := range s.lpns(c) {
		s.index.add(lpn)
	}
	s.usedBytes += int64(c.n) * flash.SectorBytes
}

// place returns the ring offset for a new chunk of n LPNs: right after the
// newest chunk, or at 0 when the run to the ring's end is too short and
// the oldest chunk starts far enough in. With no such room it grows the
// ring.
func (s *stage) place(n int) int {
	if s.pending() == 0 {
		if n <= len(s.ring) {
			return 0
		}
		return s.grow(n)
	}
	first, last := s.queue[s.head], s.queue[len(s.queue)-1]
	tail := last.off + last.n
	switch {
	case last.off < first.off: // wrapped: the free run is [tail, first.off)
		if tail+n <= first.off {
			return tail
		}
	case tail+n <= len(s.ring):
		return tail
	case n <= first.off:
		return 0
	}
	return s.grow(n)
}

// grow doubles the ring until it holds the pending LPNs plus n more,
// repacks the pending chunks from offset 0 in FIFO order, and returns the
// offset after them.
func (s *stage) grow(n int) int {
	need := int(s.usedBytes/flash.SectorBytes) + n
	size := max(2*len(s.ring), stageRingMin)
	for size < need {
		size *= 2
	}
	ring := make([]int64, size)
	off := 0
	for i := s.head; i < len(s.queue); i++ {
		c := &s.queue[i]
		copy(ring[off:], s.lpns(*c))
		c.off = off
		off += c.n
	}
	s.ring = ring
	return off
}

// pop removes the oldest chunk. Its LPNs (s.lpns) stay readable until the
// next add.
func (s *stage) pop() (staged, bool) {
	if s.head == len(s.queue) {
		return staged{}, false
	}
	c := s.queue[s.head]
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head >= 64 && s.head*2 >= len(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	for _, lpn := range s.lpns(c) {
		s.index.remove(lpn)
	}
	s.usedBytes -= int64(c.n) * flash.SectorBytes
	return c, true
}

// hitRate returns the stage's read hit rate.
func (s *stage) hitRate() float64 {
	if s == nil || s.hits+s.misses == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.hits+s.misses)
}

// Stage admits a chunk of a host write to the stage; the front end charges
// the acknowledgement. The RAM read buffer caches the sectors too.
func (b *Backend) Stage(c Chunk) {
	b.stage.add(c.Pool, c.LPNs)
	b.Counters.BufferedWrites++
	if b.ram != nil {
		for _, lpn := range c.LPNs {
			b.ram.writeAllocate(lpn)
		}
	}
}

// StagedBytes reports the stage's occupancy (0 when disabled).
func (b *Backend) StagedBytes() int64 {
	if b.stage == nil {
		return 0
	}
	return b.stage.usedBytes
}

// stageReadNs is the cost of getting a staged chunk's payload back out of
// the stage before it can be programmed.
func (b *Backend) stageReadNs(pool, payload int) int64 {
	if b.p.SLCStage {
		return b.costOf(pool).slcRead
	}
	return b.p.Timing.Transfer(payload)
}

// destageOne programs the oldest staged chunk into its pool and returns
// the flash time it consumed (stage read-out + program + any GC), or 0
// when the stage is empty.
func (b *Backend) destageOne() int64 {
	c, ok := b.stage.pop()
	if !ok {
		return 0
	}
	readOut := b.stageReadNs(c.pool, c.n*flash.SectorBytes)
	loc, gcWork, err := b.ftl.Write(b.NextPlane(), c.pool, b.stage.lpns(c))
	if err != nil {
		// Out of space mid-destage: surface as a stall the size of an
		// erase so the condition is visible without failing the replay.
		return b.p.Timing.EraseNs
	}
	ns := readOut + b.costOf(c.pool).program[loc.Page&1]
	if !gcWork.Zero() {
		b.Counters.ForegroundGC.Add(gcWork)
		ns += b.gcTime(&gcWork, c.pool)
	}
	return ns
}

// DestageIdle drains the stage into the idle gap before a request
// dispatched at dispatchAt: a chunk is destaged only when its estimated
// cost fits the remaining gap.
func (b *Backend) DestageIdle(dispatchAt int64) {
	if budget := dispatchAt - b.lastEnd; b.stage != nil && budget > 0 {
		b.drainIdle(budget)
	}
}

// drainIdle is DestageIdle's loop, kept apart so the check inlines.
func (b *Backend) drainIdle(budget int64) {
	for b.stage.pending() > 0 {
		head := b.stage.queue[b.stage.head]
		estimate := b.stageReadNs(head.pool, head.n*flash.SectorBytes) + b.costOf(head.pool).rawProgram
		if estimate > budget {
			break
		}
		ns := b.destageOne()
		if ns <= 0 {
			break
		}
		budget -= ns
		b.Counters.DestageIdleNs += ns
		if b.tel != nil {
			b.tel.destageIdle.Inc()
		}
	}
}

// DestageForSpace synchronously frees stage room for n bytes, returning
// the stall charged to the waiting request.
func (b *Backend) DestageForSpace(n int64) int64 {
	var stall int64
	for b.stage != nil && b.stage.usedBytes+n > b.stage.capBytes {
		ns := b.destageOne()
		if ns <= 0 {
			break
		}
		stall += ns
		b.Counters.DestageStallNs += ns
		if b.tel != nil {
			b.tel.destageSpace.Inc()
		}
	}
	return stall
}
