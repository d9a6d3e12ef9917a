package storage_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// smallSeal seals a shrunk eMMC device holding a few writes: a real
// envelope small enough to seed a fuzzer.
func smallSeal(tb testing.TB) []byte {
	tb.Helper()
	opt := core.CaseStudyOptions()
	opt.ScaleBlocks = 256
	opt.ScalePages = 64
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := dev.Submit(trace.Request{Arrival: int64(i) * 1e6, LBA: uint64(i) * 64, Size: 8192, Op: trace.Write}); err != nil {
			tb.Fatal(err)
		}
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		tb.Fatal(err)
	}
	return sealed
}

// FuzzReadSeal: ReadSeal never panics on arbitrary bytes, and anything it
// accepts is a payload whose digest it reports correctly and whose
// envelope re-seals to the bytes it read.
func FuzzReadSeal(f *testing.F) {
	sealed := smallSeal(f)
	f.Add(sealed)
	f.Add(sealed[:9])             // inside the header
	f.Add(sealed[:len(sealed)/2]) // inside the payload
	f.Add(sealed[:len(sealed)-5]) // inside the digest
	for _, at := range []int{8, 9, 12, 18, len(sealed) / 2, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[at] ^= 0x40
		f.Add(bad)
	}
	f.Add([]byte{})
	// A version-1 (gob) seal, and headers claiming a 2^31-byte payload or
	// an unknown version.
	v1, err := os.ReadFile("../core/testdata/v1-ufs.seal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	huge := append([]byte(nil), sealed...)
	binary.BigEndian.PutUint64(huge[10+len(storage.BackendEMMC):], 1<<31)
	f.Add(huge)
	v3 := append([]byte(nil), sealed...)
	v3[8] = 3
	f.Add(v3)
	f.Fuzz(func(t *testing.T, in []byte) {
		info, payload, err := storage.ReadSeal(bytes.NewReader(in), "fuzz")
		// A reader that cannot report its length takes the grow-as-bytes-
		// arrive path; both paths must reach the same verdict.
		_, streamed, serr := storage.ReadSeal(struct{ io.Reader }{bytes.NewReader(in)}, "fuzz")
		if (err == nil) != (serr == nil) || !bytes.Equal(payload, streamed) {
			t.Fatalf("sized and streamed reads disagree: %v vs %v", err, serr)
		}
		if err != nil {
			return
		}
		sum := sha256.Sum256(payload)
		if info.Digest != hex.EncodeToString(sum[:]) || info.PayloadBytes != int64(len(payload)) {
			t.Fatalf("accepted seal reports digest %s / %d bytes for a %d-byte payload", info.Digest, info.PayloadBytes, len(payload))
		}
		again, _, err := storage.SealPayload(info.Backend, payload)
		if err != nil {
			t.Fatalf("accepted payload does not re-seal: %v", err)
		}
		again[8] = byte(info.Version) // SealPayload writes the current version
		if !bytes.HasPrefix(in, again) {
			t.Fatal("accepted seal does not re-seal to the bytes read")
		}
	})
}

// TestReadSealBoundedAlloc: a header claiming a 4 GiB payload in front of a
// few bytes fails as a truncation after allocating about what arrived.
func TestReadSealBoundedAlloc(t *testing.T) {
	sealed, _, err := storage.SealPayload(storage.BackendEMMC, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	hostile := append([]byte(nil), sealed...)
	lenAt := 10 + len(storage.BackendEMMC)
	copy(hostile[lenAt:], []byte{0, 0, 0, 1, 0, 0, 0, 0}) // 1<<32 bytes
	for name, r := range map[string]io.Reader{
		"sized":    bytes.NewReader(hostile),
		"streamed": struct{ io.Reader }{bytes.NewReader(hostile)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = storage.ReadSeal(r, "hostile")
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a 4 GiB claim over a few bytes was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: ReadSeal allocated %d bytes for a %d-byte stream", name, grew, len(hostile))
		}
	}
}
