package ftl

import (
	"encoding/binary"
	"fmt"

	"emmcio/internal/wire"
)

// Snapshot encoding: the FTL's dynamic state, appended to a device
// snapshot in little-endian (the configuration is the device's to store).
// Each programmed page is stored once, as its live-LPN list in slab order;
// restore replays the lists through Program, so page and block live counts
// and the forward map are derived from them rather than read, and then
// runs CheckConsistency. Blocks never written and never erased cost
// nothing, so the encoding grows with what was written, not with capacity.
//
//	stats        13 int64 (Stats field order, GC in GCWork order)
//	pool erases  one int64 per pool
//	per plane, per pool:
//	  active     int32 (-1: none)
//	  free list  uint32 run count, then (first block, length) uint32 pairs
//	  blocks     uint32 count of blocks written or erased, then per block:
//	             uint32 index (ascending), the flash block header, and per
//	             programmed page a uint8 live count and that many uint32 LPNs

// Minimum encoded sizes, which bound a claimed count by the bytes left.
const (
	minRunBytes   = 8
	minBlockBytes = 4 + 9
)

// AppendGCWork appends w's six counters as int64s.
func AppendGCWork(buf []byte, w GCWork) []byte {
	return wire.AppendI64(buf, int64(w.PageMoves), w.MoveBytes, int64(w.Erases),
		int64(w.ProgramFaults), int64(w.EraseFaults), int64(w.Retired))
}

// ReadGCWork reads counters AppendGCWork wrote.
func ReadGCWork(r *wire.Reader) GCWork {
	return GCWork{PageMoves: int(r.I64()), MoveBytes: r.I64(), Erases: int(r.I64()),
		ProgramFaults: int(r.I64()), EraseFaults: int(r.I64()), Retired: int(r.I64())}
}

// AppendState appends the FTL's dynamic state in the layout above.
func (f *FTL) AppendState(buf []byte) []byte {
	s := f.stats
	buf = wire.AppendI64(buf, s.HostProgrammedPages, s.HostPayloadBytes, s.HostFootprintBytes)
	buf = AppendGCWork(buf, s.GC)
	buf = wire.AppendI64(buf, s.StaticLevelMoves, s.ProgramFaults, s.EraseFaults, s.RetiredBlocks)
	buf = wire.AppendI64(buf, f.poolErases...)
	for pi := range f.planes {
		for qi := range f.planes[pi].pools {
			buf = f.planes[pi].pools[qi].appendState(buf)
		}
	}
	return buf
}

// appendState appends one plane-pool's active block, free list and
// written blocks.
func (ps *poolState) appendState(buf []byte) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(ps.active))
	at, runs := len(buf), 0
	buf = le.AppendUint32(buf, 0)
	for i := 0; i < len(ps.free); {
		j := i + 1
		for j < len(ps.free) && ps.free[j] == ps.free[j-1]+1 {
			j++
		}
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(ps.free[i])), uint32(j-i))
		runs, i = runs+1, j
	}
	le.PutUint32(buf[at:], uint32(runs))
	at, written := len(buf), 0
	buf = le.AppendUint32(buf, 0)
	for bi := range ps.blocks {
		blk := &ps.blocks[bi]
		if blk.NextFreeCount() == 0 && blk.EraseCount() == 0 && !blk.Retired() {
			continue
		}
		written++
		buf = blk.AppendState(le.AppendUint32(buf, uint32(bi)))
		for page := 0; page < blk.NextFreeCount(); page++ {
			n := blk.PageLive(page)
			buf = append(buf, uint8(n))
			if n > 0 {
				for _, lpn := range ps.pageRev(int32(bi), page)[:n] {
					buf = le.AppendUint32(buf, uint32(lpn))
				}
			}
		}
	}
	le.PutUint32(buf[at:], uint32(written))
	return buf
}

// Restore rebuilds an FTL of configuration cfg from state AppendState
// wrote, reading it from r in one pass. Every count and index is checked
// against cfg's geometry before it sizes or indexes anything, and the
// result must pass CheckConsistency; a failure is a one-line error.
func Restore(cfg Config, r *wire.Reader) (*FTL, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("ftl: snapshot config: %w", err)
	}
	s := &f.stats
	s.HostProgrammedPages, s.HostPayloadBytes, s.HostFootprintBytes = r.I64(), r.I64(), r.I64()
	s.GC = ReadGCWork(r)
	s.StaticLevelMoves, s.ProgramFaults, s.EraseFaults, s.RetiredBlocks = r.I64(), r.I64(), r.I64(), r.I64()
	for i := range f.poolErases {
		f.poolErases[i] = r.I64()
	}
	for pi := range f.planes {
		for qi := range f.planes[pi].pools {
			if r.Err() == nil {
				f.readPool(int32(pi), int32(qi), r)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ftl: snapshot %w", err)
	}
	if err := f.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("ftl: snapshot inconsistent: %w", err)
	}
	return f, nil
}

// readPool reads one plane-pool's state into a pool fresh from New.
func (f *FTL) readPool(plane, pool int32, r *wire.Reader) {
	ps := &f.planes[plane].pools[pool]
	n := len(ps.blocks)
	active := int32(r.U32())
	if r.Err() == nil && (active < -1 || int(active) >= n) {
		r.Failf("pool %d/%d active block %d outside %d blocks", plane, pool, active, n)
	}
	ps.free = ps.freeBuf[:0]
	for range r.Count("free-list run", n, minRunBytes) {
		first, length := r.U32(), r.U32()
		if r.Err() != nil {
			return
		}
		if length == 0 || uint64(first)+uint64(length) > uint64(n) || len(ps.free)+int(length) > n {
			r.Failf("pool %d/%d free run of %d from block %d outside %d blocks", plane, pool, length, first, n)
			return
		}
		for b := int32(first); b < int32(first+length); b++ {
			ps.free = append(ps.free, b)
		}
	}
	prev := -1
	for range r.Count("written block", n, minBlockBytes) {
		b := int(r.U32())
		if r.Err() == nil && (b <= prev || b >= n) {
			r.Failf("pool %d/%d block %d out of order or outside %d blocks", plane, pool, b, n)
		}
		if r.Err() != nil {
			return
		}
		prev = b
		f.readBlock(plane, pool, int32(b), r)
	}
	if r.Err() != nil {
		return
	}
	ps.active = active
	if active >= 0 {
		ps.attach(active)
	}
	// A free block is erased, in service, inactive and listed once: New
	// left every block on the list, so a mark per block fits in its slice.
	seen := make([]bool, n)
	for _, b := range ps.free {
		blk := &ps.blocks[b]
		if seen[b] || b == active || blk.Retired() || blk.NextFreeCount() > 0 {
			r.Failf("pool %d/%d free block %d is listed twice, active, retired or written", plane, pool, b)
			return
		}
		seen[b] = true
	}
}

// readBlock reads block b's header and programmed pages, replaying each
// page's LPN list into the reverse slab, the forward map and the block's
// live counts.
func (f *FTL) readBlock(plane, pool, b int32, r *wire.Reader) {
	ps := &f.planes[plane].pools[pool]
	blk := &ps.blocks[b]
	ptr, retired := blk.ReadState(r)
	if ptr > 0 {
		ps.attachPages(b)
	}
	for page := 0; page < ptr; page++ {
		k := int(r.U8())
		if r.Err() == nil && k > ps.spp {
			r.Failf("page %d/%d/%d/%d lists %d LPNs on a %d-sector page", plane, pool, b, page, k, ps.spp)
		}
		if r.Err() != nil {
			return
		}
		if k > 0 {
			ps.attach(b)
			loc := Loc{Plane: plane, Pool: pool, Block: b, Page: int32(page)}
			lpns := ps.pageRev(b, page)[:k]
			for i := range lpns {
				lpn := int64(r.U32())
				if r.Err() == nil && lpn >= MaxLPN {
					r.Failf("page %d/%d/%d/%d maps LPN %d past the %d-LPN address space", plane, pool, b, page, lpn, int64(MaxLPN))
				}
				if r.Err() != nil {
					return
				}
				lpns[i] = lpn
				f.fwd.set(lpn, loc)
			}
		}
		blk.Program(k)
	}
	if retired {
		if blk.LiveSectors() > 0 {
			r.Failf("retired block %d/%d/%d holds %d live sectors", plane, pool, b, blk.LiveSectors())
			return
		}
		blk.Retire()
		ps.retired++
	}
}
