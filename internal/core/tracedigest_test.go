package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/reliability"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// traceDigestPrefix is how many Twitter requests each traced replay takes.
const traceDigestPrefix = 3000

// traceDigests pins the Chrome-trace bytes of traced replays, so a change
// to how the tracer stores spans cannot change what it exports. Between
// them the three devices record every span and instant kind a replay
// emits: both controller modes (simple on eMMC, interleaved on UFS), RAM-
// and write-buffer host transfers, idle and foreground GC, wake-ups and
// read-recovery markers. The first ring is the default 4096 events and
// wraps; the others hold the whole prefix.
var traceDigests = []struct {
	name     string
	scheme   core.Scheme
	capacity int
	make     func() (storage.Device, error)
	names    []string // span and instant names the export must contain
	want     string
}{
	{"emmc-hps", core.SchemeHPS, 0, func() (storage.Device, error) {
		opt := traceDigestOptions()
		opt.PowerSaving = true
		opt.GCPolicy = emmc.GCIdle
		opt.Reliability = reliability.Default()
		cfg := core.DeviceConfig(core.SchemeHPS, opt)
		cfg.RAMBufferBytes = 4 << 20
		cfg.ReadAheadPages = 8
		cfg.WriteBufferBytes = 1 << 20
		return emmc.New(cfg)
	}, []string{"request", "service", "read", "read+xfer", "ram-hit-xfer", "wb-ack", "light-wake", "idle-gc"},
		"6e0db44f023f46e392c75240ab267a7ae3e1ccd94d36b833e93b998150bd80a0"},
	{"emmc-hps-foreground-gc", core.SchemeHPS, 1 << 16, func() (storage.Device, error) {
		return core.NewDevice(core.SchemeHPS, traceDigestOptions())
	}, []string{"xfer+program", "program", "read+xfer", "read", "foreground-gc"},
		"d1464ac7d477797db5dc3587eb0f0f4238a2733efcc2819401c8ad9754aa4fbb"},
	{"ufs-4ps", core.Scheme4PS, 1 << 16, func() (storage.Device, error) {
		opt := traceDigestOptions()
		opt.Backend = storage.BackendUFS
		opt.UFSBoosterBytes = 1 << 20
		return core.NewDevice(core.Scheme4PS, opt)
	}, []string{"xfer-in", "program", "read", "xfer-out", "read-recovery"},
		"a910c9b107029bc8ac2a98dd5b26ca50eda6c38f18184b90aaea14456adf509a"},
}

// traceDigestOptions shrinks the device and raises the GC threshold so a
// short replay collects garbage, and turns fault injection on.
func traceDigestOptions() core.Options {
	opt := core.CaseStudyOptions()
	opt.ScaleBlocks = 32
	opt.ScalePages = 8
	opt.GCFreeBlocks = 6
	opt.Faults = &faults.Config{Rate: 1, Seed: 7, ProgramFailBase: 1e-7, EraseFailBase: 1e-6}
	return opt
}

// TestTraceDigests replays a Twitter prefix on pre-aged devices with a
// tracer attached and compares the SHA-256 of the exported Chrome trace to
// its pinned digest.
func TestTraceDigests(t *testing.T) {
	full := workload.DefaultRegistry().Lookup(paper.Twitter).Generate(workload.DefaultSeed)
	prefix := &trace.Trace{Name: full.Name, Reqs: full.Reqs[:traceDigestPrefix]}
	for _, c := range traceDigests {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dev, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			for p, pool := range dev.Pools() {
				blocks := float64(pool.BlocksPerPlane * dev.Geometry().Planes())
				dev.AddArtificialWear(p, int64(1.25*reliability.Default().Endurance*blocks))
			}
			tc := telemetry.NewTracer(c.capacity)
			if _, err := core.Replay(context.Background(), dev, c.scheme, trace.FromSlice(prefix), core.ReplayOpts{Tracer: tc}); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, ev := range tc.Events() {
				seen[ev.Name] = true
			}
			for _, name := range c.names {
				if !seen[name] {
					t.Errorf("exported trace has no %q event", name)
				}
			}
			var buf bytes.Buffer
			if err := tc.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("%s trace digest = %s, want %s (%d events, %d dropped)", c.name, got, c.want, tc.Len(), tc.Dropped())
			}
		})
	}
}
