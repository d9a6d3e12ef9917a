package storage_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/experiments"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
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
		"beefa9f30e7e424afdd2a4384f3fa7a38631f3ebb6fa0c3a7331f45e6698fb5a"},
	{"ufs-4PS-booster", core.Scheme4PS, storage.BackendUFS, 32, 8 << 20,
		"75c43b69c4f0681e81c85ef9619604b9efaec6581b2b035958b8cf9f9a4858a4"},
}

// TestSealBytesPinned pins the sealed bytes of two deterministically aged
// devices to fixed SHA-256 digests. Seal ids are content addresses that
// outlive any one build, so a change to the FTL's in-memory structures
// (mapping tables, block storage, snapshot assembly) must leave them
// byte-identical; only a deliberate layout change may move a digest. The
// encoding is written by hand, not by gob, so it depends on nothing a
// process encoded before: the cases seal in-process, in either order.
func TestSealBytesPinned(t *testing.T) {
	for _, order := range [][]pinCase{pinCases, {pinCases[1], pinCases[0]}} {
		for _, c := range order {
			t.Run(c.name, func(t *testing.T) {
				if got := sealAgedDigest(t, c); got != c.want {
					t.Errorf("sealed bytes sha256 = %s, want %s", got, c.want)
				}
			})
		}
	}
}

// TestSealSizeFollowsWrites: a full-size 4PS case-study device holding 48
// writes (the coordinator tests' aged snapshot) seals to well under
// 100 KiB — the payload grows with what was written, not with the 32 GB
// of flash behind it.
func TestSealSizeFollowsWrites(t *testing.T) {
	opt := core.CaseStudyOptions()
	opt.Faults = &faults.Config{Seed: 11, Rate: 1}
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	var arrival int64
	for i := 0; i < 48; i++ {
		res, err := dev.Submit(trace.Request{Arrival: arrival, LBA: uint64(i * 64), Size: 16 << 10, Op: trace.Write})
		if err != nil {
			t.Fatal(err)
		}
		arrival = res.Finish
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) >= 100<<10 {
		t.Errorf("48 writes seal to %d bytes, want under 100 KiB", len(sealed))
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
