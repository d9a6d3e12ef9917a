package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// readV1Seal returns the committed version-1 seal of backend: a shrunk HPS
// device of that backend with fault injection on, aged by 600 requests
// until its pools ran out of space (GC, retired blocks and, on UFS,
// booster content included), sealed before payload version 2 existed.
func readV1Seal(tb testing.TB, backend storage.Backend) []byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/v1-" + string(backend) + ".seal")
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// followDigest replays a fixed mixed session on dev and digests every
// result and the final counters.
func followDigest(dev storage.Device) string {
	h := sha256.New()
	at := dev.LastActivity()
	for i := 0; i < 300; i++ {
		at += int64(2e5 + (i%11)*5e5)
		op := trace.Write
		if i%3 == 2 {
			op = trace.Read
		}
		res, err := dev.Submit(trace.Request{Arrival: at, LBA: uint64((i*53)%200) * 8, Size: uint32(4096 * (1 + i%3)), Op: op})
		fmt.Fprintf(h, "%d %+v %v\n", i, res, err)
	}
	fmt.Fprintf(h, "%+v %+v %d %+v\n", dev.Metrics(), dev.FTLStats(), dev.FaultDraws(), dev.Wear(0))
	return hex.EncodeToString(h.Sum(nil))
}

// TestV1SealsRestore: a committed version-1 seal still restores under its
// own id, re-seals as version 2 to a pinned digest, and the device it
// yields — from the version-1 seal or from its version-2 re-seal — replays
// a fixed session exactly as the version-1 reader's device did (the follow
// digests were recorded with the gob restore, before version 2).
func TestV1SealsRestore(t *testing.T) {
	for _, c := range []struct {
		backend        storage.Backend
		v1, v2, follow string
	}{
		{storage.BackendEMMC,
			"bd5a495f2ae4efd6f7499e389b6da144f98b6b688e90917ff85faa619176a8cb",
			"78e1754deb678612568ba4fe8a2b4c170852c348bb74e6d721df309e72059820",
			"1f691c70567f7840c595fbffaa4562c04258c70cc85c49080f0dd84364dfdc33"},
		{storage.BackendUFS,
			"0b83dca0f37429d1c8cc1307c68a1094958588fd47341d1bb83832ee149d24cb",
			"a027708d283004a03cc4ba78f89087e55b5cbd33121dc85f8bf74f035dca9f2a",
			"ff3e0ad1d9ee7cf8a9b98a01aa0d550a6be6aff87eb08d8fafc03192711c057a"},
	} {
		t.Run(string(c.backend), func(t *testing.T) {
			dev, info, err := core.RestoreSealed("v1", bytes.NewReader(readV1Seal(t, c.backend)))
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != 1 || info.Digest != c.v1 {
				t.Fatalf("seal reads as version %d, id %s; want version 1, id %s", info.Version, info.Digest, c.v1)
			}
			sealed, info2, err := storage.Seal(dev)
			if err != nil {
				t.Fatal(err)
			}
			if info2.Version != 2 || info2.Digest != c.v2 {
				t.Errorf("re-seal is version %d, id %s; want version 2, id %s", info2.Version, info2.Digest, c.v2)
			}
			again, _, err := core.RestoreSealed("v2", bytes.NewReader(sealed))
			if err != nil {
				t.Fatal(err)
			}
			if got := followDigest(dev); got != c.follow {
				t.Errorf("version-1 restore replays to %s, want %s", got, c.follow)
			}
			if got := followDigest(again); got != c.follow {
				t.Errorf("version-2 re-seal replays to %s, want %s", got, c.follow)
			}
		})
	}
}
