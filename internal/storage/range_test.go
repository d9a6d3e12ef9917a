package storage_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// TestOutOfRangeRejectedBeforeState: a request whose LPN range leaves the
// FTL's 2 TiB address space fails at submit with a one-line error wrapping
// ftl.ErrOutOfRange, on eMMC (write buffer and RAM cache on) and UFS
// (booster on), single and packed, and leaves the device's sealed state
// byte-identical.
func TestOutOfRangeRejectedBeforeState(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendUFS} {
		t.Run(string(backend), func(t *testing.T) {
			opt := core.CaseStudyOptions()
			opt.Backend = backend
			opt.ScaleBlocks = 64
			opt.ScalePages = 16
			opt.WriteBufferBytes = 1 << 20
			opt.RAMBufferBytes = 1 << 20
			dev, err := core.NewDevice(core.SchemeHPS, opt)
			if err != nil {
				t.Fatal(err)
			}
			ok := trace.Request{Arrival: 1e6, LBA: 4096, Size: 8192, Op: trace.Write}
			if _, err := dev.Submit(ok); err != nil {
				t.Fatal(err)
			}
			before, _, err := storage.Seal(dev)
			if err != nil {
				t.Fatal(err)
			}
			bad := []trace.Request{
				{Arrival: 2e6, LBA: 1 << 33, Size: 4096, Op: trace.Write},
				{Arrival: 2e6, LBA: 1 << 33, Size: 4096, Op: trace.Read},
				{Arrival: 2e6, LBA: 1<<32 - 8, Size: 8192, Op: trace.Write}, // crosses the limit
			}
			for _, req := range bad {
				_, err := dev.Submit(req)
				if !errors.Is(err, ftl.ErrOutOfRange) || strings.Contains(err.Error(), "\n") {
					t.Fatalf("Submit(%+v) = %v, want a one-line ftl.ErrOutOfRange", req, err)
				}
			}
			// A packed batch with one bad member fails whole, before its
			// good member runs.
			batch := []trace.Request{{Arrival: 2e6, LBA: 8192, Size: 4096, Op: trace.Write}, bad[0]}
			if _, err := dev.SubmitPacked(2e6, batch); !errors.Is(err, ftl.ErrOutOfRange) {
				t.Fatalf("SubmitPacked = %v, want ftl.ErrOutOfRange", err)
			}
			after, _, err := storage.Seal(dev)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("rejected requests changed the device state")
			}
			// The last LPN of the address space is still writable.
			last := trace.Request{Arrival: 3e6, LBA: 1<<32 - 8, Size: 4096, Op: trace.Write}
			if _, err := dev.Submit(last); err != nil {
				t.Fatalf("write at the last LPN: %v", err)
			}
		})
	}
}
