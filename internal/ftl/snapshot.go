package ftl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"emmcio/internal/flash"
)

// Snapshot serialization: the FTL's full state (mapping, block states, free
// lists, statistics) in one gob stream, so an aged device can be archived
// and resumed instead of replaying its history. The configuration is
// embedded and checked on restore.

// PoolSnapshot is the serializable state of one plane-pool.
type PoolSnapshot struct {
	Blocks []flash.BlockState
	Free   []int32
	Active int32
}

// PlaneSnapshot is the serializable state of one plane.
type PlaneSnapshot struct {
	Pools []PoolSnapshot
}

// SnapshotData is the serializable state of the whole FTL; callers embed it
// in their own snapshot structures so one gob stream carries everything.
//
// Device snapshots are content-addressed — equal state must encode to
// equal bytes — so the mapping travels as key-sorted pair slices: fwd in
// ascending LPN order, rev (one entry per page holding live data) in
// ascending packed-Loc order with each page's LPNs in slab order. The
// dense tables produce both orders by plain in-order iteration.
type SnapshotData struct {
	Config Config
	Planes []PlaneSnapshot
	// WireFwd and WireRev are never populated. Before it calls GobEncode,
	// gob describes the types of a GobEncoder struct's exported fields in
	// the enclosing stream, so these two map types are part of every
	// sealed snapshot's bytes and must stay.
	WireFwd    map[int64]Loc
	WireRev    map[uint64][]int64
	Stats      Stats
	PoolErases []int64

	fwd []fwdPair
	rev []revPair
}

// fwdPair and revPair are one forward mapping and one page's reverse list.
type fwdPair struct {
	LPN int64
	Loc Loc
}

type revPair struct {
	Key  uint64
	LPNs []int64
}

// snapshotWire is the gob form of SnapshotData, nested as its GobEncoder
// payload. Gob sends type and field names, so the names here are part of
// the sealed bytes too.
type snapshotWire struct {
	Config     Config
	Planes     []PlaneSnapshot
	Fwd        []fwdPair
	Rev        []revPair
	Stats      Stats
	PoolErases []int64
}

// GobEncode implements gob.GobEncoder with a deterministic byte form.
func (s *SnapshotData) GobEncode() ([]byte, error) {
	w := snapshotWire{Config: s.Config, Planes: s.Planes, Fwd: s.fwd, Rev: s.rev, Stats: s.Stats, PoolErases: s.PoolErases}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder for the canonical wire form.
func (s *SnapshotData) GobDecode(data []byte) error {
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*s = SnapshotData{Config: w.Config, Planes: w.Planes, Stats: w.Stats, PoolErases: w.PoolErases, fwd: w.Fwd, rev: w.Rev}
	return nil
}

// SnapshotData exports the FTL state. The mapping pairs are copies; block
// free lists and wear counters alias the live FTL.
func (f *FTL) SnapshotData() *SnapshotData {
	snap := &SnapshotData{
		Config:     f.cfg,
		fwd:        f.fwd.pairs(),
		Stats:      f.stats,
		PoolErases: f.poolErases,
	}
	lpns := make([]int64, 0, f.fwd.n)
	for pi := range f.planes {
		var ps PlaneSnapshot
		for qi := range f.planes[pi].pools {
			pool := &f.planes[pi].pools[qi]
			q := PoolSnapshot{Free: pool.free, Active: pool.active}
			for bi := range pool.blocks {
				blk := &pool.blocks[bi]
				q.Blocks = append(q.Blocks, blk.Dump())
				if blk.LiveSectors() == 0 {
					continue
				}
				for page := 0; page < blk.Pages(); page++ {
					n := blk.PageLive(page)
					if n == 0 {
						continue
					}
					start := len(lpns)
					lpns = append(lpns, pool.pageRev(int32(bi), page)[:n]...)
					loc := Loc{Plane: int32(pi), Pool: int32(qi), Block: int32(bi), Page: int32(page)}
					snap.rev = append(snap.rev, revPair{Key: loc.pack(), LPNs: lpns[start:len(lpns):len(lpns)]})
				}
			}
			ps.Pools = append(ps.Pools, q)
		}
		snap.Planes = append(snap.Planes, ps)
	}
	return snap
}

// Snapshot writes the FTL state to w as one gob message.
func (f *FTL) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f.SnapshotData())
}

// RestoreSnapshot rebuilds an FTL from a stream written by Snapshot.
func RestoreSnapshot(r io.Reader) (*FTL, error) {
	var snap SnapshotData
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ftl: decoding snapshot: %w", err)
	}
	return RestoreFromData(&snap)
}

// RestoreFromData rebuilds an FTL from exported snapshot data, filling the
// dense tables directly, and rejects state that is out of range or
// inconsistent with a one-line error.
func RestoreFromData(snap *SnapshotData) (*FTL, error) {
	if err := snap.Config.Validate(); err != nil {
		return nil, fmt.Errorf("ftl: snapshot config: %w", err)
	}
	if len(snap.Planes) != snap.Config.Geometry.Planes() {
		return nil, fmt.Errorf("ftl: snapshot has %d planes for a %d-plane geometry",
			len(snap.Planes), snap.Config.Geometry.Planes())
	}
	f := &FTL{
		cfg:        snap.Config,
		planes:     make([]planeState, len(snap.Planes)),
		stats:      snap.Stats,
		poolErases: snap.PoolErases,
	}
	if len(f.poolErases) != len(snap.Config.Pools) {
		f.poolErases = make([]int64, len(snap.Config.Pools))
	}
	for pi, ps := range snap.Planes {
		if len(ps.Pools) != len(snap.Config.Pools) {
			return nil, fmt.Errorf("ftl: snapshot plane %d has %d pools, config %d",
				pi, len(ps.Pools), len(snap.Config.Pools))
		}
		pools := make([]poolState, len(ps.Pools))
		for qi, q := range ps.Pools {
			spec := snap.Config.Pools[qi]
			if len(q.Blocks) != spec.BlocksPerPlane {
				return nil, fmt.Errorf("ftl: snapshot pool %d/%d has %d blocks, spec %d",
					pi, qi, len(q.Blocks), spec.BlocksPerPlane)
			}
			for _, bs := range q.Blocks {
				if len(bs.Live) != spec.PagesPerBlock {
					return nil, fmt.Errorf("ftl: snapshot block page count mismatch")
				}
			}
			n := int32(spec.BlocksPerPlane)
			if q.Active < -1 || q.Active >= n {
				return nil, fmt.Errorf("ftl: snapshot pool %d/%d active block %d out of range", pi, qi, q.Active)
			}
			for _, b := range q.Free {
				if b < 0 || b >= n {
					return nil, fmt.Errorf("ftl: snapshot pool %d/%d free block %d out of range", pi, qi, b)
				}
			}
			pool := newPoolState(spec, flash.RestoreBlocks(q.Blocks), q.Free, q.Active)
			// The per-pool retired counter is derived state; recompute it
			// from the block flags so pre-fault snapshots restore cleanly.
			for bi := range pool.blocks {
				if pool.blocks[bi].Retired() {
					pool.retired++
				}
			}
			if q.Active >= 0 {
				pool.attach(q.Active)
			}
			pools[qi] = pool
		}
		f.planes[pi].pools = pools
	}
	for _, p := range snap.rev {
		loc := unpack(p.Key)
		if loc.pack() != p.Key || !f.validLoc(loc) {
			return nil, fmt.Errorf("ftl: snapshot reverse-map key %#x outside the geometry", p.Key)
		}
		ps := &f.planes[loc.Plane].pools[loc.Pool]
		if live := ps.blocks[loc.Block].PageLive(int(loc.Page)); len(p.LPNs) != live || live > ps.spp {
			return nil, fmt.Errorf("ftl: snapshot page %+v lists %d LPNs for %d live sectors", loc, len(p.LPNs), live)
		}
		ps.attach(loc.Block)
		copy(ps.pageRev(loc.Block, int(loc.Page)), p.LPNs)
	}
	maxDir, leaves, prev := int64(-1), 0, int64(-1)
	for _, p := range snap.fwd {
		if err := CheckRange(p.LPN, 1); err != nil {
			return nil, fmt.Errorf("ftl: snapshot mapping: %w", err)
		}
		if !f.validLoc(p.Loc) {
			return nil, fmt.Errorf("ftl: snapshot maps LPN %d outside the geometry at %+v", p.LPN, p.Loc)
		}
		if d := p.LPN >> leafShift; d != prev {
			leaves, prev, maxDir = leaves+1, d, max(maxDir, d)
		}
	}
	f.fwd.reserve(int(maxDir), leaves)
	for _, p := range snap.fwd {
		f.fwd.set(p.LPN, p.Loc)
	}
	if err := f.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("ftl: snapshot inconsistent: %w", err)
	}
	return f, nil
}
