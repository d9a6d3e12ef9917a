package nand

import (
	"fmt"
	"slices"

	"emmcio/internal/faults"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
)

// State is the back end's share of a device snapshot. Each front end
// copies it into and out of its own gob layout, whose field names and
// order fix the sealed bytes. The RAM read buffer and mapping cache are
// caches and restart cold.
type State struct {
	FTL         *ftl.SnapshotData
	LastEnd     int64
	RRPlane     int
	Metrics     storage.Metrics
	ChannelFree []int64
	ChannelBusy []int64
	PlaneFree   []int64
	PlaneBusy   []int64
	// FaultDraws archives the injector's decision-stream position so a
	// restored device resumes the exact fault sequence.
	FaultDraws int64
	// Staged is the stage's queue in destage order (PageBytes unset), with
	// its read-hit accounting; the dirty-sector index is rebuilt from the
	// queue.
	Staged                 []Chunk
	StageHits, StageMisses int64
}

// State captures the back end's dynamic state.
func (b *Backend) State() State {
	s := State{
		FTL:        b.ftl.SnapshotData(),
		LastEnd:    b.lastEnd,
		RRPlane:    b.rrPlane,
		Metrics:    b.Counters,
		FaultDraws: b.inj.Draws(),
	}
	for i := range b.channels {
		f, busy := b.channels[i].State()
		s.ChannelFree = append(s.ChannelFree, f)
		s.ChannelBusy = append(s.ChannelBusy, busy)
	}
	for i := range b.planes {
		f, busy := b.planes[i].State()
		s.PlaneFree = append(s.PlaneFree, f)
		s.PlaneBusy = append(s.PlaneBusy, busy)
	}
	if b.stage != nil {
		s.StageHits, s.StageMisses = b.stage.hits, b.stage.misses
		for _, c := range b.stage.queue[b.stage.head:] {
			s.Staged = append(s.Staged, Chunk{Pool: c.pool, LPNs: slices.Clone(c.lpns)})
		}
	}
	return s
}

// Restore rebuilds a back end from p and a State that may come from an
// untrusted snapshot: every field that sizes or indexes something is
// checked against p, and a mismatch is a one-line error.
func Restore(p Params, s State) (Backend, error) {
	if s.FTL == nil {
		return Backend{}, fmt.Errorf("%s: snapshot missing FTL state", p.Name)
	}
	f, err := ftl.RestoreFromData(s.FTL)
	if err != nil {
		return Backend{}, err
	}
	if s.FTL.Config.Geometry != p.Geometry || !slices.Equal(s.FTL.Config.Pools, p.Pools) {
		return Backend{}, fmt.Errorf("%s: snapshot FTL geometry or pools differ from the device config", p.Name)
	}
	if len(s.ChannelFree) != p.Geometry.Channels || len(s.ChannelBusy) != p.Geometry.Channels ||
		len(s.PlaneFree) != p.Geometry.Planes() || len(s.PlaneBusy) != p.Geometry.Planes() {
		return Backend{}, fmt.Errorf("%s: snapshot resource counts mismatch", p.Name)
	}
	if s.RRPlane < 0 {
		return Backend{}, fmt.Errorf("%s: snapshot stripe cursor %d is negative", p.Name, s.RRPlane)
	}
	inj, err := faults.New(p.Faults)
	if err != nil {
		return Backend{}, err
	}
	inj.Skip(s.FaultDraws)
	b := build(p, f, inj)
	if len(s.Staged) > 0 && b.stage == nil {
		return Backend{}, fmt.Errorf("%s: snapshot has staged writes but no staging capacity", p.Name)
	}
	for _, c := range s.Staged {
		if c.Pool < 0 || c.Pool >= len(p.Pools) || len(c.LPNs) == 0 || len(c.LPNs) > p.Pools[c.Pool].SectorsPerPage() {
			return Backend{}, fmt.Errorf("%s: snapshot staged chunk of %d sectors in pool %d does not fit a page", p.Name, len(c.LPNs), c.Pool)
		}
		for _, lpn := range c.LPNs {
			if err := ftl.CheckRange(lpn, 1); err != nil {
				return Backend{}, fmt.Errorf("%s: snapshot staged chunk: %w", p.Name, err)
			}
		}
		b.stage.add(c.Pool, c.LPNs)
	}
	if b.stage != nil {
		b.stage.hits, b.stage.misses = s.StageHits, s.StageMisses
	}
	for i := range b.channels {
		b.channels[i].SetState(s.ChannelFree[i], s.ChannelBusy[i])
	}
	for i := range b.planes {
		b.planes[i].SetState(s.PlaneFree[i], s.PlaneBusy[i])
	}
	b.lastEnd, b.rrPlane, b.Counters = s.LastEnd, s.RRPlane, s.Metrics
	return b, nil
}
