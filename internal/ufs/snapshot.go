package ufs

import (
	"fmt"
	"io"

	"emmcio/internal/nand"
	"emmcio/internal/wire"
)

// Snapshot archives the device to w — its configuration, command-slot
// cursors and back end (FTL, timing cursors, metrics, fault stream,
// booster content) in the version-2 layout of internal/storage/seal.go —
// so an aged device can be resumed later without replaying its history.
// The booster holds the only copy of its dirty sectors, so a restored
// device still answers booster reads at SLC latency and still owes the
// same migrations.
func (d *Device) Snapshot(w io.Writer) error {
	buf, err := wire.AppendJSON(nil, d.Config())
	if err != nil {
		return fmt.Errorf("ufs: encoding snapshot config: %w", err)
	}
	buf = d.AppendState(wire.AppendI64(buf, d.slots...))
	_, err = w.Write(buf)
	return err
}

// RestoreSnapshot rebuilds a device from a Snapshot stream: it reads the
// stream once and restores from the bytes with RestoreBytes.
func RestoreSnapshot(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ufs: reading snapshot: %w", err)
	}
	return RestoreBytes(data)
}

// RestoreBytes rebuilds a device from the bytes Snapshot wrote, checking
// them against their own configuration as it reads. The device keeps no
// reference to data.
func RestoreBytes(data []byte) (*Device, error) {
	rd := wire.NewReader(data)
	var cfg Config
	rd.JSON("config", &cfg)
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("ufs: snapshot %w", err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ufs: snapshot config: %w", err)
	}
	slots := make([]int64, cfg.slots())
	for i := range slots {
		slots[i] = rd.I64()
	}
	b, err := nand.Restore(cfg.params(), rd)
	if err != nil {
		return nil, err
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("ufs: snapshot %w", err)
	}
	return &Device{Backend: b, cfg: cfg, slots: slots}, nil
}
