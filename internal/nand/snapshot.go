package nand

import (
	"encoding/binary"
	"fmt"

	"emmcio/internal/faults"
	"emmcio/internal/ftl"
	"emmcio/internal/sim"
	"emmcio/internal/storage"
	"emmcio/internal/wire"
)

// AppendState appends the back end's share of a device snapshot (layout
// in internal/storage/seal.go): the FTL, then the timing cursors, metrics,
// channel and plane resources, the fault stream and the staged writes.
// The FTL comes first so a restore has validated the geometry before it
// sizes anything by it. The RAM read buffer and mapping cache are caches
// and restart cold.
func (b *Backend) AppendState(buf []byte) []byte {
	buf = b.ftl.AppendState(buf)
	buf = wire.AppendI64(buf, b.lastEnd, int64(b.rrPlane))
	buf = storage.AppendMetrics(buf, b.Counters)
	for _, rs := range [][]sim.Resource{b.channels, b.planes} {
		for i := range rs {
			free, busy := rs[i].State()
			buf = wire.AppendI64(buf, free, busy)
		}
	}
	buf = b.inj.AppendState(buf)
	return b.appendStage(buf)
}

// appendStage appends the stage's read-hit accounting and its chunks in
// destage order; the staged-sector index is rebuilt from them.
func (b *Backend) appendStage(buf []byte) []byte {
	s := b.stage
	if s == nil {
		buf = wire.AppendI64(buf, 0, 0)
		return binary.LittleEndian.AppendUint32(buf, 0)
	}
	buf = wire.AppendI64(buf, s.hits, s.misses)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.pending()))
	for _, c := range s.queue[s.head:] {
		buf = append(buf, uint8(c.pool), uint8(c.n))
		for _, lpn := range s.lpns(c) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(lpn))
		}
	}
	return buf
}

// Restore rebuilds a back end from p and state AppendState wrote, read
// from r, which may hold an untrusted snapshot: every count and index is
// checked against p, and a mismatch is a one-line error.
func Restore(p Params, r *wire.Reader) (Backend, error) {
	if err := r.Err(); err != nil {
		return Backend{}, fmt.Errorf("%s: snapshot %w", p.Name, err)
	}
	f, err := ftl.Restore(p.ftlConfig(), r)
	if err != nil {
		return Backend{}, err
	}
	inj, err := faults.New(p.Faults)
	if err != nil {
		return Backend{}, err
	}
	b := build(p, f, inj)
	lastEnd, rr := r.I64(), r.I64()
	if r.Err() == nil && (rr < 0 || rr > 1<<62) {
		r.Failf("stripe cursor %d outside [0, 2^62]", rr)
	}
	b.lastEnd, b.rrPlane = lastEnd, int(rr)
	b.Counters = storage.ReadMetrics(r)
	for _, rs := range [][]sim.Resource{b.channels, b.planes} {
		for i := range rs {
			rs[i].SetState(r.I64(), r.I64())
		}
	}
	inj.ReadState(r)
	b.readStage(r)
	if err := r.Err(); err != nil {
		return Backend{}, fmt.Errorf("%s: snapshot %w", p.Name, err)
	}
	return b, nil
}

// readStage reads what appendStage wrote into the back end's stage. The
// ring and the queue are each allocated once, before any chunk is read.
// The ring is sized by two bounds on the chunks' LPNs: no chunk holds more
// than its pool's page, and each LPN is 4 of the bytes left after the
// chunks' 2-byte headers (exact when the stage ends the payload, as it
// does).
func (b *Backend) readStage(r *wire.Reader) {
	hits, misses := r.I64(), r.I64()
	n := r.Count("staged chunk", 1<<31, 2+4)
	s := b.stage
	if s == nil {
		if n > 0 {
			r.Failf("%d staged chunks but no staging capacity", n)
		}
		return
	}
	s.hits, s.misses = hits, misses
	if n == 0 {
		return
	}
	maxSPP := 0
	for _, pool := range b.p.Pools {
		maxSPP = max(maxSPP, pool.SectorsPerPage())
	}
	s.ring = make([]int64, min(n*maxSPP, (r.Len()-2*n)/4))
	s.queue = make([]staged, 0, n)
	off := 0
	for range n {
		pool, k := int(r.U8()), int(r.U8())
		if r.Err() == nil && (pool >= len(b.p.Pools) || k == 0 || k > b.p.Pools[pool].SectorsPerPage()) {
			r.Failf("staged chunk of %d sectors in pool %d does not fit a page", k, pool)
		}
		if r.Err() == nil && off+k > len(s.ring) {
			r.Failf("staged chunks hold more LPNs than the bytes left can encode")
		}
		if r.Err() != nil {
			return
		}
		for i := range k {
			lpn := int64(r.U32())
			if r.Err() == nil && lpn >= ftl.MaxLPN {
				r.Failf("staged LPN %d past the %d-LPN address space", lpn, int64(ftl.MaxLPN))
			}
			if r.Err() != nil {
				return
			}
			s.ring[off+i] = lpn
		}
		s.push(staged{pool: pool, off: off, n: k})
		off += k
	}
}
