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
// read of it and a destage. Ordering is a slice queue; a set of the staged
// sectors answers read hits.

// staged is one chunk awaiting destage. The pool is fixed at admission by
// the write splitter, so destage order cannot change where data lands.
type staged struct {
	pool int
	lpns []int64
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
	// freeLPNs recycles the lpn storage of destaged chunks, so admitting a
	// chunk allocates nothing in steady state.
	freeLPNs [][]int64
	// index holds the staged (not yet destaged) sectors for read hits. It
	// is sized by what is staged, not by capBytes, which a configuration
	// may set far beyond memory.
	index lpnSet

	hits   int64
	misses int64
}

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

// add stages a chunk of pool, copying lpns into recycled storage.
func (s *stage) add(pool int, lpns []int64) {
	cp := s.grabLPNs(len(lpns))
	copy(cp, lpns)
	s.queue = append(s.queue, staged{pool: pool, lpns: cp})
	for _, lpn := range cp {
		s.index.add(lpn)
	}
	s.usedBytes += int64(len(cp)) * flash.SectorBytes
}

// grabLPNs returns a length-n slice, recycled when a fitting one is free.
func (s *stage) grabLPNs(n int) []int64 {
	if k := len(s.freeLPNs); k > 0 {
		buf := s.freeLPNs[k-1]
		s.freeLPNs = s.freeLPNs[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int64, n)
}

// pop removes the oldest chunk. The caller owns the returned lpns and
// hands them back to freeLPNs when done.
func (s *stage) pop() (staged, bool) {
	if s.head == len(s.queue) {
		return staged{}, false
	}
	c := s.queue[s.head]
	s.queue[s.head] = staged{} // unpin the lpns storage
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head >= 64 && s.head*2 >= len(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue = s.queue[:n]
		s.head = 0
	}
	for _, lpn := range c.lpns {
		s.index.remove(lpn)
	}
	s.usedBytes -= int64(len(c.lpns)) * flash.SectorBytes
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
	readOut := b.stageReadNs(c.pool, len(c.lpns)*flash.SectorBytes)
	loc, gcWork, err := b.ftl.Write(b.NextPlane(), c.pool, c.lpns)
	b.stage.freeLPNs = append(b.stage.freeLPNs, c.lpns[:0])
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
		estimate := b.stageReadNs(head.pool, len(head.lpns)*flash.SectorBytes) + b.costOf(head.pool).rawProgram
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
