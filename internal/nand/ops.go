package nand

import (
	"fmt"

	"emmcio/internal/flash"
	"emmcio/internal/ftl"
)

// Chunk is one physical page operation derived from a host write: the
// sectors one page of pool Pool holds.
type Chunk struct {
	Pool      int
	LPNs      []int64
	PageBytes int
}

// split decomposes a run of sectors into page chunks: whole large pages
// first, then smaller pools, the remainder padding the smallest pool's
// page (the source of 8PS's wasted flash space, §V-A). The returned slice
// is scratch, valid until the next split; its chunks alias lpns.
func (b *Backend) split(lpns []int64) []Chunk {
	out := b.chunkBuf[:0]
	rest := lpns
	for pi, pool := range b.p.Pools {
		spp := pool.SectorsPerPage()
		last := pi == len(b.p.Pools)-1
		for len(rest) >= spp || (last && len(rest) > 0) {
			n := spp
			if n > len(rest) {
				n = len(rest)
			}
			out = append(out, Chunk{Pool: pi, LPNs: rest[:n], PageBytes: pool.PageBytes})
			rest = rest[n:]
		}
	}
	b.chunkBuf = out
	return out
}

// SplitWrite splits a host write into page chunks (valid until the next
// call) and charges the mapping-cache I/O for each chunk's entry, which
// delays when its flash operations may start.
func (b *Backend) SplitWrite(opsStart int64, lpns []int64) ([]Chunk, int64) {
	chunks := b.split(lpns)
	if b.mapCache != nil {
		for _, c := range chunks {
			opsStart += b.mapAccess(c.LPNs[0], true)
		}
	}
	return chunks, opsStart
}

// mapAccess charges the translation I/O for touching the mapping entry of
// the LPN: a translation-page read per miss and a program per dirty
// eviction, serialized in the controller before the data operations.
func (b *Backend) mapAccess(lpn int64, dirty bool) int64 {
	tReads, tWrites := b.mapCache.Access(lpn, dirty)
	if tReads == 0 && tWrites == 0 {
		return 0
	}
	var ns int64
	if tReads > 0 {
		ns += int64(tReads) * b.mapRead
		b.Counters.MapReads += int64(tReads)
	}
	if tWrites > 0 {
		ns += int64(tWrites) * b.mapProgram
		b.Counters.MapWrites += int64(tWrites)
	}
	b.Counters.MapNs += ns
	return ns
}

// NextPlane returns the plane the round-robin stripe cursor points at and
// advances the cursor.
func (b *Backend) NextPlane() int {
	plane := b.rrPlane % len(b.planes)
	b.rrPlane++
	return plane
}

// BeginOps starts a request's pipelining count: the first operation a
// request issues to a serialization unit pays full latency, later ones
// the pipeline factor.
func (b *Backend) BeginOps() { clear(b.unitOps) }

// opCost applies the pipelining factor to the latency of the n-th (0-based)
// consecutive flash operation a request issues to one serialization unit.
func (b *Backend) opCost(base int64, nthOnUnit int) int64 {
	if nthOnUnit == 0 {
		return base
	}
	return int64(float64(base) * b.p.Timing.PipelineFactor)
}

// serialUnit returns the index a request's per-unit op counter is keyed
// by: the plane when the channel interleaves, the channel itself otherwise
// (plane indices are a superset of channel indices, so one slice serves
// both keyings).
func (b *Backend) serialUnit(plane int) int {
	if b.p.Interleave {
		return plane
	}
	return b.p.Geometry.ChannelOf(plane)
}

// Program schedules one page program on plane — the payload transfer, then
// extra (GC the write triggered) plus the base program latency pipelined
// within the request — and returns its completion time.
func (b *Backend) Program(opsStart int64, plane, payload int, base, extra int64, pageBytes int) int64 {
	unit := b.serialUnit(plane)
	prog := b.opCost(base, b.unitOps[unit])
	b.unitOps[unit]++
	return b.scheduleWrite(opsStart, plane, b.p.Timing.Transfer(payload), extra+prog, pageBytes)
}

// scheduleWrite places one program operation (transfer then program) on a
// channel/plane pair and returns its completion time.
func (b *Backend) scheduleWrite(opsStart int64, plane int, transfer, opNs int64, pageBytes int) int64 {
	chIdx := b.p.Geometry.ChannelOf(plane)
	ch := &b.channels[chIdx]
	pl := &b.planes[plane]
	b.observeSub(pageBytes)
	if b.p.Interleave {
		// Channel frees after the transfer; the plane runs the program.
		chStart, chEnd := ch.Reserve(opsStart, transfer)
		plStart, plEnd := pl.Reserve(chEnd, opNs)
		if s := b.spans; s != nil {
			pg := pageIdx(pageBytes)
			s.tr.Span(s.channel[chIdx][opWrite][pg], chStart, chEnd)
			s.tr.Span(s.plane[plane][opWrite][pg], plStart, plEnd)
		}
		return plEnd
	}
	// Simple controller: the channel is held through the program.
	start := opsStart
	if f := ch.FreeAt(); f > start {
		start = f
	}
	if f := pl.FreeAt() - transfer; f > start {
		start = f
	}
	ch.ReserveWindow(start, transfer+opNs)
	pl.ReserveWindow(start+transfer, opNs)
	if s := b.spans; s != nil {
		pg := pageIdx(pageBytes)
		s.tr.Span(s.channel[chIdx][opWrite][pg], start, start+transfer+opNs)
		s.tr.Span(s.plane[plane][opWrite][pg], start+transfer, start+transfer+opNs)
	}
	return start + transfer + opNs
}

// scheduleRead places one read operation (flash read then transfer out)
// and returns its completion time.
func (b *Backend) scheduleRead(opsStart int64, plane int, opNs, transfer int64, pageBytes int) int64 {
	chIdx := b.p.Geometry.ChannelOf(plane)
	ch := &b.channels[chIdx]
	pl := &b.planes[plane]
	b.observeSub(pageBytes)
	if b.p.Interleave {
		plStart, plEnd := pl.Reserve(opsStart, opNs)
		chStart, chEnd := ch.Reserve(plEnd, transfer)
		if s := b.spans; s != nil {
			pg := pageIdx(pageBytes)
			s.tr.Span(s.plane[plane][opRead][pg], plStart, plEnd)
			s.tr.Span(s.channel[chIdx][opRead][pg], chStart, chEnd)
		}
		return chEnd
	}
	start := opsStart
	if f := ch.FreeAt(); f > start {
		start = f
	}
	if f := pl.FreeAt(); f > start {
		start = f
	}
	ch.ReserveWindow(start, opNs+transfer)
	pl.ReserveWindow(start, opNs)
	if s := b.spans; s != nil {
		pg := pageIdx(pageBytes)
		s.tr.Span(s.channel[chIdx][opRead][pg], start, start+opNs+transfer)
		s.tr.Span(s.plane[plane][opRead][pg], start, start+opNs)
	}
	return start + opNs + transfer
}

// HostTransfer moves payload bytes between controller RAM and the host on
// the channel the stripe cursor points at, without advancing the cursor,
// and returns when the transfer ends. pageBytes > 0 counts it as a
// sub-request of that page size and labels its span.
func (b *Backend) HostTransfer(at int64, payload int, x HostXfer, pageBytes int) int64 {
	ch := b.rrPlane % b.p.Geometry.Channels
	chStart, chEnd := b.channels[ch].Reserve(at, b.p.Timing.Transfer(payload))
	if s := b.spans; s != nil {
		label := 0
		if pageBytes > 0 {
			label = 1 + pageIdx(pageBytes)
		}
		s.tr.Span(s.host[ch][x][label], chStart, chEnd)
	}
	if pageBytes > 0 {
		b.observeSub(pageBytes)
	}
	return chEnd
}

// gcTime prices a unit of FTL garbage work in pool in flash latency.
func (b *Backend) gcTime(w *ftl.GCWork, pool int) int64 {
	c := b.costOf(pool)
	moveNs := int64(w.PageMoves) * (c.rawRead + c.rawProgram)
	// Failed operations still occupy the plane until the status fail: a full
	// program per rejected program, a full erase per rejected erase.
	faultNs := int64(w.ProgramFaults)*c.rawProgram + int64(w.EraseFaults)*b.p.Timing.EraseNs
	return moveNs + faultNs + int64(w.Erases)*b.p.Timing.EraseNs
}

// WriteFTL programs chunks straight into the FTL, striping them across
// planes, and returns when the last program completes. A chunk whose write
// triggers foreground GC pays for the collection on its plane.
func (b *Backend) WriteFTL(opsStart int64, chunks []Chunk) (int64, error) {
	b.BeginOps()
	finish := opsStart
	for _, c := range chunks {
		plane := b.NextPlane()
		loc, gcWork, err := b.ftl.Write(plane, c.Pool, c.LPNs)
		if err != nil {
			return 0, err
		}
		var gcNs int64
		if !gcWork.Zero() {
			gcNs = b.gcTime(&gcWork, c.Pool)
			b.Counters.ForegroundGC.Add(gcWork)
			b.Counters.GCStallNs += gcNs
			if b.tel != nil {
				b.tel.gcStallNs.Add(gcNs)
			}
			if s := b.spans; s != nil {
				s.tr.Instant(s.fgGC[pageIdx(c.PageBytes)], opsStart)
			}
		}
		if b.ram != nil {
			for _, lpn := range c.LPNs {
				b.ram.writeAllocate(lpn)
			}
		}
		base := b.costOf(c.Pool).program[loc.Page&1]
		if end := b.Program(opsStart, plane, len(c.LPNs)*flash.SectorBytes, base, gcNs, c.PageBytes); end > finish {
			finish = end
		}
	}
	return finish, nil
}

// readOp is one physical page read derived from a host request.
type readOp struct {
	plane   int
	pool    int
	payload int
	// loc/mapped identify the physical page for mapped reads — the
	// fault-recovery path needs it to retire the failing block.
	loc    ftl.Loc
	mapped bool
	slc    bool // a read of SLC-staged data
}

// flushPendingReads converts the accumulated unmapped-sector run into read
// ops laid out by the write splitter, then clears the run.
func (b *Backend) flushPendingReads() {
	if len(b.pendingLPNs) == 0 {
		return
	}
	for _, c := range b.split(b.pendingLPNs) {
		b.readOps = append(b.readOps, readOp{plane: b.NextPlane(), pool: c.Pool, payload: len(c.LPNs) * flash.SectorBytes})
	}
	b.pendingLPNs = b.pendingLPNs[:0]
}

// Read reads the physical pages backing a host read and returns when the
// last completes. Sectors held in controller RAM (the RAM stage or the read
// buffer) only cross the channel; SLC-staged sectors are SLC page reads off
// a striped plane; mapped sectors are read wherever (and at whatever page
// size) they were written; unmapped sectors — reads of never-written data —
// are charged as if laid out by the write splitter.
func (b *Backend) Read(opsStart int64, lpns []int64) (int64, error) {
	if b.mapCache != nil {
		for _, lpn := range lpns {
			opsStart += b.mapAccess(lpn, false)
		}
	}
	b.readOps = b.readOps[:0]
	b.pendingLPNs = b.pendingLPNs[:0] // unmapped run
	var lastLoc ftl.Loc
	haveLast := false
	hitSectors := 0
	prefetching := b.p.ReadAheadPages > 0 && b.ram != nil
	prefetched := prefetching && len(lpns) > 0 && lpns[0] == b.lastReadEnd
	for _, lpn := range lpns {
		if b.stage != nil && b.stage.holds(lpn) {
			b.stage.hits++
			if !b.p.SLCStage {
				hitSectors++
				continue
			}
			b.flushPendingReads()
			b.readOps = append(b.readOps, readOp{plane: b.NextPlane(), pool: len(b.p.Pools) - 1,
				payload: flash.SectorBytes, slc: true})
			haveLast = false
			continue
		}
		if b.stage != nil {
			b.stage.misses++
		}
		if b.ram != nil && b.ram.readProbe(lpn) {
			// Served from device RAM: no flash operation, only host transfer.
			hitSectors++
			if prefetched {
				b.prefetchHit++
			}
			continue
		}
		loc, ok := b.ftl.Lookup(lpn)
		if !ok {
			b.pendingLPNs = append(b.pendingLPNs, lpn)
			continue
		}
		if haveLast && loc == lastLoc {
			// Same physical page as the previous sector: one read covers it.
			b.readOps[len(b.readOps)-1].payload += flash.SectorBytes
			continue
		}
		b.flushPendingReads()
		b.readOps = append(b.readOps, readOp{plane: int(loc.Plane), pool: int(loc.Pool), payload: flash.SectorBytes,
			loc: loc, mapped: true})
		lastLoc, haveLast = loc, true
	}
	b.flushPendingReads()

	if n := len(lpns); n > 0 {
		b.lastReadEnd = lpns[n-1] + 1
		if prefetching {
			b.readAhead(b.lastReadEnd)
		}
	}

	b.BeginOps()
	finish := opsStart
	if hitSectors > 0 {
		if end := b.HostTransfer(opsStart, hitSectors*flash.SectorBytes, RAMHitXfer, 0); end > finish {
			finish = end
		}
	}
	for _, op := range b.readOps {
		cost := b.costOf(op.pool)
		unit := b.serialUnit(op.plane)
		var rd int64
		if op.slc {
			rd = b.opCost(cost.slcRead, b.unitOps[unit])
		} else {
			rd = b.opCost(cost.read, b.unitOps[unit])
		}
		if b.p.Reliability != nil {
			if f := b.readRetryFactor(op.pool); f > 1 {
				rd = int64(float64(rd) * f)
			}
		}
		b.unitOps[unit]++
		// Uncorrectable read: the page stays unreadable after the retry
		// ladder, so the plane burns the extra attempts and the controller
		// read-scrubs the block into retirement — all charged to this read.
		if op.mapped && b.inj.ReadUncorrectable(b.ftl.PoolAvgPE(op.pool)) {
			rec, rerr := b.ftl.RetireBlockAt(op.loc)
			extra := int64(b.inj.RecoveryReads())*cost.read + b.gcTime(&rec, op.pool)
			rd += extra
			b.Counters.ReadFaults++
			b.Counters.RecoveryNs += extra
			if b.tel != nil {
				b.tel.readFaults.Inc()
				b.tel.recoveryNs.Add(extra)
				b.tel.recoveryHist.Observe(extra)
			}
			if s := b.spans; s != nil {
				s.tr.Instant(s.recovery, opsStart)
			}
			if rerr != nil {
				return 0, fmt.Errorf("%s: read-scrub recovery: %w (after %w)", b.p.Name, rerr, flash.ErrUncorrectable)
			}
		}
		if end := b.scheduleRead(opsStart, op.plane, rd, b.p.Timing.Transfer(op.payload), b.p.Pools[op.pool].PageBytes); end > finish {
			finish = end
		}
	}
	return finish, nil
}

// readRetryFactor returns the wear-dependent read latency multiplier for a
// pool, memoized until the pool's wear level changes.
func (b *Backend) readRetryFactor(pool int) float64 {
	pe := b.ftl.PoolAvgPE(pool)
	if b.relFactor[pool] == 0 || pe != b.relPE[pool] {
		b.relPE[pool] = pe
		b.relFactor[pool] = b.p.Reliability.ReadLatencyFactor(pe)
	}
	return b.relFactor[pool]
}

// readAhead loads the next sequential sectors into the RAM buffer after a
// read ending at endLPN (free of charge: the device fetches them while the
// host is idle). Hits are detected by the buffer probe on later reads.
func (b *Backend) readAhead(endLPN int64) {
	for i := int64(0); i < int64(b.p.ReadAheadPages); i++ {
		b.ram.writeAllocate(endLPN + i)
		b.prefetches++
	}
}

// RunIdleGC cleans threshold pools, absorbing the cost into the idle gap
// the device accumulated before a request dispatched at arrival. It returns
// the overflow charged to the request.
func (b *Backend) RunIdleGC(arrival int64) (int64, error) {
	budget := arrival - b.lastEnd
	if budget < 0 {
		budget = 0
	}
	var overflow int64
	for plane := 0; plane < len(b.planes); plane++ {
		for pool := range b.p.Pools {
			if !b.ftl.NeedsGC(plane, pool) {
				continue
			}
			work, err := b.ftl.CollectGarbage(plane, pool)
			if err != nil {
				return overflow, fmt.Errorf("%s: idle GC: %w", b.p.Name, err)
			}
			if work.Zero() {
				continue
			}
			ns := b.gcTime(&work, pool)
			b.Counters.IdleGC.Add(work)
			if s := b.spans; s != nil {
				s.tr.Instant(s.idleGC[pageIdx(b.p.Pools[pool].PageBytes)], arrival)
			}
			if ns <= budget {
				budget -= ns
				b.Counters.IdleGCNs += ns
				if b.tel != nil {
					b.tel.idleGCNs.Add(ns)
				}
			} else {
				b.Counters.IdleGCNs += budget
				over := ns - budget
				if b.tel != nil {
					b.tel.idleGCNs.Add(budget)
					b.tel.gcStallNs.Add(over)
				}
				budget = 0
				overflow += over
				b.Counters.GCStallNs += over
			}
		}
	}
	return overflow, nil
}
