package core_test

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/ufs"
)

// emmcWire and ufsWire mirror the devices' snapshot layouts field by field
// (gob matches fields by name), so a test can decode a real payload, make
// it hostile, and encode it again.
type emmcWire struct {
	Config      emmc.Config
	FTL         *ftl.SnapshotData
	FreeAt      int64
	LastEnd     int64
	RRPlane     int
	Metrics     storage.Metrics
	ChannelFree []int64
	ChannelBusy []int64
	PlaneFree   []int64
	PlaneBusy   []int64
	FaultDraws  int64
}

type ufsWire struct {
	Config        ufs.Config
	FTL           *ftl.SnapshotData
	Slots         []int64
	LastEnd       int64
	RRPlane       int
	Metrics       storage.Metrics
	ChannelFree   []int64
	ChannelBusy   []int64
	PlaneFree     []int64
	PlaneBusy     []int64
	BoosterQueue  []ufs.BoosterChunk
	BoosterHits   int64
	BoosterMisses int64
	FaultDraws    int64
}

// smallDevicePayload ages a shrunk device of the backend with a few writes
// (UFS keeps them in its booster) and returns its snapshot payload.
func smallDevicePayload(tb testing.TB, backend storage.Backend) []byte {
	tb.Helper()
	opt := core.CaseStudyOptions()
	opt.Backend = backend
	opt.ScaleBlocks = 256
	opt.ScalePages = 64
	opt.UFSBoosterBytes = 1 << 20
	dev, err := core.NewDevice(core.SchemeHPS, opt)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := dev.Submit(trace.Request{Arrival: int64(i) * 1e6, LBA: uint64(i) * 64, Size: 12288, Op: trace.Write}); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := dev.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// mutate decodes payload into a wire mirror, applies edit, and re-encodes.
func mutate[W any](tb testing.TB, payload []byte, edit func(*W)) []byte {
	tb.Helper()
	var w W
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); err != nil {
		tb.Fatal(err)
	}
	edit(&w)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hostileCase is a payload that reached a panic (or left corrupt state)
// before restore validated it.
type hostileCase struct {
	name    string
	backend storage.Backend
	payload []byte
}

func hostileCases(tb testing.TB) []hostileCase {
	em := smallDevicePayload(tb, storage.BackendEMMC)
	uf := smallDevicePayload(tb, storage.BackendUFS)
	block := func(w *ftl.SnapshotData) *flash.BlockState { return &w.Planes[0].Pools[0].Blocks[0] }
	return []hostileCase{
		{"channel-busy-short", storage.BackendEMMC, mutate(tb, em, func(w *emmcWire) { w.ChannelBusy = w.ChannelBusy[:1] })},
		{"plane-busy-short", storage.BackendUFS, mutate(tb, uf, func(w *ufsWire) { w.PlaneBusy = nil })},
		{"booster-pool", storage.BackendUFS, mutate(tb, uf, func(w *ufsWire) { w.BoosterQueue[0].Pool = 9 })},
		{"booster-overfull", storage.BackendUFS, mutate(tb, uf, func(w *ufsWire) {
			w.BoosterQueue[0].LPNs = []int64{1, 2, 3}
		})},
		{"booster-empty", storage.BackendUFS, mutate(tb, uf, func(w *ufsWire) { w.BoosterQueue[0].LPNs = nil })},
		{"booster-lpn-range", storage.BackendUFS, mutate(tb, uf, func(w *ufsWire) { w.BoosterQueue[0].LPNs[0] = ftl.MaxLPN })},
		{"write-ptr-negative", storage.BackendEMMC, mutate(tb, em, func(w *emmcWire) { block(w.FTL).WritePtr = -1 })},
		{"write-ptr-past-end", storage.BackendEMMC, mutate(tb, em, func(w *emmcWire) {
			block(w.FTL).WritePtr = len(block(w.FTL).Live) + 1
		})},
		{"write-ptr-behind-live-pages", storage.BackendEMMC, mutate(tb, em, func(w *emmcWire) {
			for pl := range w.FTL.Planes {
				blocks := w.FTL.Planes[pl].Pools[0].Blocks
				for i := range blocks {
					if blocks[i].LiveSecs > 0 {
						blocks[i].WritePtr = 0
						return
					}
				}
			}
			tb.Fatal("no block holds live data")
		})},
		{"stripe-cursor-negative", storage.BackendEMMC, mutate(tb, em, func(w *emmcWire) { w.RRPlane = -3 })},
		// A transfer cost whose product overflows sim time once panicked
		// the first non-interleaved write after restore.
		{"transfer-cost-overflow", storage.BackendEMMC, mutate(tb, em, func(w *emmcWire) { w.Config.Timing.TransferNsPerByte = 4e39 })},
	}
}

// TestRestoreRejectsHostileSeals: each hand-built defect restores to a
// one-line error, never a panic or a device.
func TestRestoreRejectsHostileSeals(t *testing.T) {
	for _, c := range hostileCases(t) {
		sealed, _, err := storage.SealPayload(c.backend, c.payload)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = core.RestoreSealed(c.name, bytes.NewReader(sealed))
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: restore = %v, want a one-line error", c.name, err)
		}
	}
}

// FuzzRestoreSealed: any payload, sealed with a valid digest (which an
// uploader can always compute), restores to a device or a one-line error,
// never a panic; a device it does restore survives a short replay with a
// flush and a re-seal.
func FuzzRestoreSealed(f *testing.F) {
	f.Add(false, smallDevicePayload(f, storage.BackendEMMC))
	f.Add(true, smallDevicePayload(f, storage.BackendUFS))
	for _, c := range hostileCases(f) {
		f.Add(c.backend == storage.BackendUFS, c.payload)
	}
	f.Fuzz(func(t *testing.T, isUFS bool, payload []byte) {
		backend := storage.BackendEMMC
		if isUFS {
			backend = storage.BackendUFS
		}
		sealed, _, err := storage.SealPayload(backend, payload)
		if err != nil {
			t.Fatal(err)
		}
		dev, _, err := core.RestoreSealed("fuzz", bytes.NewReader(sealed))
		if err != nil {
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("multi-line restore error: %q", err)
			}
			return
		}
		at := dev.LastActivity()
		for i, op := range []trace.Op{trace.Write, trace.Read, trace.Write, trace.Read} {
			at += 1e6
			if _, err := dev.Submit(trace.Request{Arrival: at, LBA: uint64(i) * 8, Size: 8192, Op: op}); err != nil {
				return
			}
		}
		if _, err := dev.Flush(at + 1); err != nil {
			return
		}
		_, _, _ = storage.Seal(dev)
	})
}
