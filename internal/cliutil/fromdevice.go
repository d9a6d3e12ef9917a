package cliutil

import (
	"bytes"
	"fmt"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/storage"
)

// DeviceSource resolves a device id to its sealed snapshot bytes. The
// devstore.Store satisfies it directly; the emmcd server and the emmcc
// coordinator hand their stores to specs via SetDeviceSource, so a
// from_device job restores an archived aged device instead of building a
// fresh one. The id is whatever the source names devices by — for the
// snapshot store, the content-derived "d"+digest-prefix form.
type DeviceSource interface {
	OpenDevice(id string) ([]byte, error)
}

// fork decodes a private device from the sealed snapshot of device id and,
// when fc is non-nil, replaces its archived fault regime with fc (a fresh
// injector at draw 0). It is the one fork step of replay and sweep specs;
// every call decodes anew, so concurrent forks share nothing.
func fork(id string, sealed []byte, fc *faults.Config) (storage.Device, error) {
	dev, _, err := core.RestoreSealed(id, bytes.NewReader(sealed))
	if err == nil && fc != nil {
		err = dev.SetFaultConfig(fc)
	}
	return dev, err
}

// errSealedBackend rejects a device selection on a fork: the snapshot
// carries its own backend.
func errSealedBackend(id string) error {
	return fmt.Errorf("a device cannot be chosen for snapshot %q: its backend is sealed inside it", id)
}
