package storage_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/experiments"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/workload"
)

// pinCase is one deterministically aged device whose sealed bytes are
// pinned. The devices are shrunk (1/blocks of the blocks, 1/8 of the pages
// per block) so two Twitter sessions drive garbage collection, fault
// retirement and, on UFS, booster destage. The HPS shrink is the one at
// which GC also relocates two-sector 8 KB pages, so the digest depends on
// the order survivors are repacked in.
type pinCase struct {
	name    string
	scheme  core.Scheme
	backend storage.Backend
	blocks  int
	booster int64
	want    string
}

var pinCases = []pinCase{
	{"emmc-HPS-faults", core.SchemeHPS, storage.BackendEMMC, 20, 0,
		"433defa088376e9258400940b180d545504d8d076dcb5a9c20f262925d959ee0"},
	{"ufs-4PS-booster", core.Scheme4PS, storage.BackendUFS, 32, 8 << 20,
		"440abd3a9b68c8e9759eb54fd46396d0157173430da6111e76359d3946041ad2"},
}

// pinCaseEnv names the case a child process seals.
const pinCaseEnv = "EMMCIO_SEAL_PIN_CASE"

var pinDigestLine = regexp.MustCompile(`(?m)^pinned-digest ([0-9a-f]{64})$`)

// TestSealBytesPinned pins the sealed bytes of two deterministically aged
// devices to fixed SHA-256 digests. Seal ids are content addresses that
// outlive any one build, so a change to the FTL's in-memory structures
// (mapping tables, block storage, snapshot assembly) must leave them
// byte-identical; only a deliberate wire-format change may move a digest.
//
// Each case seals in a fresh child process: gob numbers the types it
// encodes in first-use order across the whole process, so the same state
// sealed after some other snapshot type was encoded yields different
// bytes. A fresh process makes the digest independent of test order.
func TestSealBytesPinned(t *testing.T) {
	if name := os.Getenv(pinCaseEnv); name != "" {
		for _, c := range pinCases {
			if c.name == name {
				fmt.Printf("pinned-digest %s\n", sealAgedDigest(t, c))
				return
			}
		}
		t.Fatalf("unknown pin case %q", name)
	}
	for _, c := range pinCases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestSealBytesPinned$", "-test.count=1")
			cmd.Env = append(os.Environ(), pinCaseEnv+"="+c.name)
			out, err := cmd.CombinedOutput()
			m := pinDigestLine.FindSubmatch(out)
			if err != nil || m == nil {
				t.Fatalf("child seal failed: %v\n%s", err, out)
			}
			if got := string(m[1]); got != c.want {
				t.Errorf("sealed bytes sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// sealAgedDigest ages c's device and returns the hex SHA-256 of its seal.
func sealAgedDigest(t *testing.T, c pinCase) string {
	t.Helper()
	opt := core.CaseStudyOptions()
	opt.Backend = c.backend
	opt.ScaleBlocks = c.blocks
	opt.ScalePages = 8
	opt.UFSBoosterBytes = c.booster
	opt.Faults = &faults.Config{Seed: 7, Rate: 1}
	prep := experiments.AgePrep{Trace: paper.Twitter, Sessions: 2, Scheme: c.scheme}
	prep.SetOptions(opt)
	dev, err := experiments.AgeDevice(experiments.NewEnv(workload.DefaultSeed), prep)
	if err != nil {
		t.Fatalf("AgeDevice: %v", err)
	}
	if dev.FaultDraws() == 0 {
		t.Fatal("aging drew no fault decisions")
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	sum := sha256.Sum256(sealed)
	return hex.EncodeToString(sum[:])
}
