package cliutil

// DeviceSource resolves a device id to its sealed snapshot bytes. The
// devstore.Store satisfies it directly; the emmcd server and the emmcc
// coordinator hand their stores to specs via SetDeviceSource, so a
// from_device job restores an archived aged device instead of building a
// fresh one. The id is whatever the source names devices by — for the
// snapshot store, the content-derived "d"+digest-prefix form.
type DeviceSource interface {
	OpenDevice(id string) ([]byte, error)
}
