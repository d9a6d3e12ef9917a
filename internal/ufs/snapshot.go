package ufs

import (
	"encoding/gob"
	"fmt"
	"io"

	"emmcio/internal/ftl"
	"emmcio/internal/nand"
	"emmcio/internal/storage"
)

// BoosterChunk is the gob form of one pending booster migration.
type BoosterChunk struct {
	Pool int
	LPNs []int64
}

// deviceSnapshot is the gob layout of a device's dynamic state. Unlike the
// eMMC model's RAM buffer (a cache that restarts cold), the booster holds
// the only copy of its dirty sectors, so its queue is part of the snapshot:
// a restored device still answers booster reads at SLC latency and still
// owes the same migrations.
type deviceSnapshot struct {
	Config      Config
	FTL         *ftl.SnapshotData
	Slots       []int64
	LastEnd     int64
	RRPlane     int
	Metrics     storage.Metrics
	ChannelFree []int64
	ChannelBusy []int64
	PlaneFree   []int64
	PlaneBusy   []int64
	// Booster state: the pending-migration queue in order, plus hit
	// accounting. The dirty-sector index is rebuilt from the queue.
	BoosterQueue  []BoosterChunk
	BoosterHits   int64
	BoosterMisses int64
	// FaultDraws archives the injector's decision-stream position so a
	// restored device resumes the exact fault sequence (Skip fast-forward).
	FaultDraws int64
}

// Snapshot archives the device (configuration, FTL state, command-slot and
// resource timing cursors, booster content, metrics) to w, so an aged
// device can be resumed later without replaying its history.
func (d *Device) Snapshot(w io.Writer) error {
	s := d.State()
	snap := deviceSnapshot{
		Config:        d.Config(),
		FTL:           s.FTL,
		Slots:         append([]int64(nil), d.slots...),
		LastEnd:       s.LastEnd,
		RRPlane:       s.RRPlane,
		Metrics:       s.Metrics,
		ChannelFree:   s.ChannelFree,
		ChannelBusy:   s.ChannelBusy,
		PlaneFree:     s.PlaneFree,
		PlaneBusy:     s.PlaneBusy,
		BoosterHits:   s.StageHits,
		BoosterMisses: s.StageMisses,
		FaultDraws:    s.FaultDraws,
	}
	for _, c := range s.Staged {
		snap.BoosterQueue = append(snap.BoosterQueue, BoosterChunk{Pool: c.Pool, LPNs: c.LPNs})
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("ufs: encoding snapshot: %w", err)
	}
	return nil
}

// RestoreSnapshot rebuilds a device from a Snapshot stream.
func RestoreSnapshot(r io.Reader) (*Device, error) {
	var snap deviceSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ufs: decoding snapshot: %w", err)
	}
	cfg := snap.Config.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ufs: snapshot config: %w", err)
	}
	if len(snap.Slots) != cfg.slots() {
		return nil, fmt.Errorf("ufs: snapshot slot count mismatch")
	}
	staged := make([]nand.Chunk, len(snap.BoosterQueue))
	for i, c := range snap.BoosterQueue {
		staged[i] = nand.Chunk{Pool: c.Pool, LPNs: c.LPNs}
	}
	b, err := nand.Restore(cfg.params(), nand.State{
		FTL:         snap.FTL,
		LastEnd:     snap.LastEnd,
		RRPlane:     snap.RRPlane,
		Metrics:     snap.Metrics,
		ChannelFree: snap.ChannelFree,
		ChannelBusy: snap.ChannelBusy,
		PlaneFree:   snap.PlaneFree,
		PlaneBusy:   snap.PlaneBusy,
		FaultDraws:  snap.FaultDraws,
		Staged:      staged,
		StageHits:   snap.BoosterHits,
		StageMisses: snap.BoosterMisses,
	})
	if err != nil {
		return nil, err
	}
	return &Device{Backend: b, cfg: cfg, slots: snap.Slots}, nil
}
