package cliutil

import (
	"flag"

	"emmcio/internal/core"
	"emmcio/internal/storage"
)

// DeviceSpec selects the storage backend a replay or sweep runs against,
// plus the UFS-only sizing knobs. It is embedded in ReplaySpec and
// SweepSpec so the -device flag and the "device" JSON field are one field
// with one validation path: storage.ParseBackend, whose one-line error
// (unknown name plus the valid list) both the CLI and the server surface
// verbatim before any job runs.
type DeviceSpec struct {
	// Device names the backend: "emmc" (default), "sd", or "ufs".
	Device string `json:"device,omitempty"`
	// UFSQueues is the UFS submission queue count (0 = backend default).
	UFSQueues int `json:"ufs_queues,omitempty"`
	// UFSQueueDepth is the per-queue command slot count (0 = backend
	// default of 32).
	UFSQueueDepth int `json:"ufs_queue_depth,omitempty"`
	// UFSBoosterMB sizes the SLC write booster in MB (0 = backend default
	// of 64 MB, negative = booster disabled).
	UFSBoosterMB int `json:"ufs_booster_mb,omitempty"`
}

// BindFlags registers the device-selection flags on fs.
func (d *DeviceSpec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&d.Device, "device", "", "storage backend: emmc (default), sd, or ufs")
	fs.IntVar(&d.UFSQueues, "ufs-queues", 0, "UFS submission queue count (0 = default 1)")
	fs.IntVar(&d.UFSQueueDepth, "ufs-queue-depth", 0, "UFS command slots per queue (0 = default 32)")
	fs.IntVar(&d.UFSBoosterMB, "ufs-booster", 0, "UFS SLC write-booster size in MB (0 = default 64, negative = disabled)")
}

// Backend resolves the device name. The error is a single line listing
// the valid backends; callers print it verbatim.
func (d *DeviceSpec) Backend() (storage.Backend, error) {
	return storage.ParseBackend(d.Device)
}

// Apply writes the spec's backend selection into opt, rejecting unknown
// device names.
func (d *DeviceSpec) Apply(opt *core.Options) error {
	b, err := d.Backend()
	if err != nil {
		return err
	}
	opt.Backend = b
	opt.UFSQueues = d.UFSQueues
	opt.UFSQueueDepth = d.UFSQueueDepth
	opt.UFSBoosterBytes = d.boosterBytes()
	return nil
}

// boosterBytes maps the MB-denominated knob to core.Options' byte field:
// 0 keeps the backend default, negative disables the booster.
func (d *DeviceSpec) boosterBytes() int64 {
	switch {
	case d.UFSBoosterMB < 0:
		return -1
	case d.UFSBoosterMB > 0:
		return int64(d.UFSBoosterMB) << 20
	}
	return 0
}
