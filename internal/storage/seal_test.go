package storage_test

import (
	"bytes"
	"strings"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// sealTestDevice builds a device with a little state on the given backend
// (faults on, so the draw-position survives the round trip too).
func sealTestDevice(t *testing.T, backend storage.Backend) storage.Device {
	t.Helper()
	opt := core.CaseStudyOptions()
	opt.Backend = backend
	opt.Faults = &faults.Config{Seed: 7, Rate: 1}
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		t.Fatalf("NewDevice(%s): %v", backend, err)
	}
	var arrival int64
	for i := 0; i < 64; i++ {
		req := trace.Request{Arrival: arrival, LBA: uint64(i * 64), Size: 16 << 10, Op: trace.Write}
		res, err := dev.Submit(req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		arrival = res.Finish
	}
	return dev
}

// TestSealRoundTrip: a sealed snapshot restores to a device whose state —
// metrics, wear, injector position — matches the original, on both
// layouts (eMMC and UFS), and the envelope self-describes the backend and
// the payload version.
func TestSealRoundTrip(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendUFS} {
		t.Run(string(backend), func(t *testing.T) {
			dev := sealTestDevice(t, backend)
			sealed, info, err := storage.Seal(dev)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			if info.Backend != backend || info.Version != 2 {
				t.Errorf("sealed backend %q version %d, want %q version 2", info.Backend, info.Version, backend)
			}
			if len(info.Digest) != 64 {
				t.Errorf("digest %q is not hex sha256", info.Digest)
			}
			if info.PayloadBytes <= 0 || int(info.PayloadBytes) >= len(sealed) {
				t.Errorf("payload bytes %d out of range for %d sealed bytes", info.PayloadBytes, len(sealed))
			}

			got, gotInfo, err := core.RestoreSealed("test-device", bytes.NewReader(sealed))
			if err != nil {
				t.Fatalf("RestoreSealed: %v", err)
			}
			if gotInfo.Digest != info.Digest {
				t.Errorf("restored digest %q != sealed %q", gotInfo.Digest, info.Digest)
			}
			if got.Caps().Backend != backend {
				t.Errorf("restored Caps().Backend = %q, want %q", got.Caps().Backend, backend)
			}
			if got.Metrics() != dev.Metrics() {
				t.Errorf("restored metrics diverge:\n got %+v\nwant %+v", got.Metrics(), dev.Metrics())
			}
			if got.Wear(0) != dev.Wear(0) {
				t.Errorf("restored wear diverges: got %+v want %+v", got.Wear(0), dev.Wear(0))
			}
			if got.FaultDraws() != dev.FaultDraws() {
				t.Errorf("restored injector position = %d draws, want %d", got.FaultDraws(), dev.FaultDraws())
			}
			if got.LastActivity() != dev.LastActivity() {
				t.Errorf("restored LastActivity = %d, want %d", got.LastActivity(), dev.LastActivity())
			}
		})
	}
}

// TestSealDeterministic: sealing the same device state twice yields the
// same bytes and digest — the property content addressing stands on.
func TestSealDeterministic(t *testing.T) {
	dev := sealTestDevice(t, storage.BackendEMMC)
	a, ai, err := storage.Seal(dev)
	if err != nil {
		t.Fatal(err)
	}
	b, bi, err := storage.Seal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("sealing the same state twice produced different bytes")
	}
	if ai.Digest != bi.Digest {
		t.Errorf("digests diverge: %q vs %q", ai.Digest, bi.Digest)
	}
}

// TestSealDiagnostics pins the one-line failure contract: truncation names
// the device id and the byte offset, corruption names the payload range and
// both digests, and a bad backend name lists the valid ones — all before
// any payload decoding.
func TestSealDiagnostics(t *testing.T) {
	dev := sealTestDevice(t, storage.BackendEMMC)
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		_, _, err := storage.ReadSeal(bytes.NewReader(sealed[:len(sealed)/2]), "d12345")
		if err == nil {
			t.Fatal("half a snapshot restored without error")
		}
		for _, want := range []string{"d12345", "truncated at byte"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("truncation error %q does not mention %q", err, want)
			}
		}
	})

	t.Run("corrupt-payload", func(t *testing.T) {
		bad := append([]byte(nil), sealed...)
		bad[len(bad)/2] ^= 0xff // flip a payload bit
		_, _, err := storage.ReadSeal(bytes.NewReader(bad), "d12345")
		if err == nil {
			t.Fatal("corrupt snapshot restored without error")
		}
		for _, want := range []string{"d12345", "digest mismatch", "bytes"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("corruption error %q does not mention %q", err, want)
			}
		}
	})

	t.Run("not-sealed", func(t *testing.T) {
		_, _, err := storage.ReadSeal(strings.NewReader("this is not a snapshot at all"), "")
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("garbage stream error = %v, want a bad-magic diagnostic", err)
		}
	})

	t.Run("unknown-backend", func(t *testing.T) {
		sealedBad, _, err := storage.SealPayload("emmc", []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the backend name in place ("emmc" -> "xmmc").
		sealedBad[10] = 'x'
		_, _, err = storage.ReadSeal(bytes.NewReader(sealedBad), "")
		if err == nil || !strings.Contains(err.Error(), "unknown device") {
			t.Errorf("unknown-backend error = %v, want the ParseBackend diagnostic", err)
		}
	})
}
