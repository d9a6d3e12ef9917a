package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unicode"

	"emmcio/internal/core"
	"emmcio/internal/emmc"
	"emmcio/internal/faults"
	"emmcio/internal/reliability"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// backendPin is one device configuration whose replay is pinned to a
// SHA-256 digest of every per-request Result plus the final device
// accounting. The eMMC goldens only exercise the §V defaults; these pins
// cover the paths they miss: UFS with and without the booster, the sd
// flavour, and each optional eMMC mechanism on its own.
type backendPin struct {
	name string
	make func() (storage.Device, error)
	want string
}

// pinOptions is the shared base: fault injection on and a device shrunk
// (1/16 of the blocks, 1/8 of the pages per block) so the replay drives
// garbage collection with live-page moves.
func pinOptions() core.Options {
	opt := core.CaseStudyOptions()
	opt.ScaleBlocks = 16
	opt.ScalePages = 8
	opt.Faults = &faults.Config{Rate: 1, Seed: 7, ProgramFailBase: 1e-7, EraseFailBase: 1e-6}
	return opt
}

func pinDevice(edit func(*core.Options)) func() (storage.Device, error) {
	return func() (storage.Device, error) {
		opt := pinOptions()
		edit(&opt)
		return core.NewDevice(core.SchemeHPS, opt)
	}
}

func pinEMMC(edit func(*emmc.Config)) func() (storage.Device, error) {
	return func() (storage.Device, error) {
		cfg := core.DeviceConfig(core.SchemeHPS, pinOptions())
		edit(&cfg)
		return emmc.New(cfg)
	}
}

var backendPins = []backendPin{
	{"ufs-booster", pinDevice(func(o *core.Options) {
		o.Backend = storage.BackendUFS
		o.UFSBoosterBytes = 1 << 20
	}), "0e504b8c4a565e2cdfab2305df1738de10db3c1d9e4de4888275a037feaf757a"},
	{"ufs-no-booster", pinDevice(func(o *core.Options) {
		o.Backend = storage.BackendUFS
		o.UFSBoosterBytes = -1
	}), "f2b2a24595b80f82eb6e5fb42229768c39cdea3f45bbc1d60ea8d39dccc1268c"},
	{"sd", pinDevice(func(o *core.Options) { o.Backend = storage.BackendSD }), "c1e9c00befe7e2f3e0b90cbcee5862079d032af5aeb0de3981b3f498d719ba8d"},
	{"emmc-write-buffer", pinDevice(func(o *core.Options) { o.WriteBufferBytes = 1 << 20 }), "b5080252278536ee55164d0d5387f9eca3cd3f087fb34592a3f7f91fd5b81360"},
	{"emmc-command-queue", pinDevice(func(o *core.Options) { o.CommandQueue = true }), "7630c6e852f0e6d6ad4440e4e4c9333ff4db55c21d647bd6ebbcfc206ec2006d"},
	{"emmc-map-cache", pinDevice(func(o *core.Options) { o.MapCacheBytes = 16 << 10 }), "4c7ab8242586a45be2049d6f5a430ca52e3216c279a8f1048ff3933f103e5635"},
	{"emmc-ram-read-ahead", pinEMMC(func(c *emmc.Config) {
		c.RAMBufferBytes = 4 << 20
		c.ReadAheadPages = 8
	}), "e80f9c422e21037640fadf5c5d7dc650e15f67d23492a83448854c219c7d7f60"},
	{"emmc-reliability", pinDevice(func(o *core.Options) { o.Reliability = reliability.Default() }), "4034f0b13826a9aebad6c7343e58f1cf1f70abc00c0e568829dc5bdd51f69d7e"},
	{"emmc-power", pinDevice(func(o *core.Options) { o.PowerSaving = true }), "8776a9ae3a5a1e06638b81dc55260d0de07e3716b2edade421e30a173a4d0cea"},
	{"emmc-interleaved", pinEMMC(func(c *emmc.Config) { c.Timing.ChannelInterleave = true }), "990f546378b9827d42eaabe8a0b9608ab79cd3a0bf242aad3c8d288090cd0b90"},
}

// TestBackendPins replays pinWorkload on each pinned configuration and
// compares the digest. The driver mixes the three submit paths the replay
// loops use: single requests, two-member batches (packed commands on eMMC,
// independent slots on UFS), and a flush barrier every 50 requests. Every
// pool is pre-aged to 1.25× its rated endurance, so program faults retire
// blocks and uncorrectable reads take the read-scrub recovery path (and,
// with the reliability model on, reads pay wear-dependent retries).
func TestBackendPins(t *testing.T) {
	reqs := pinWorkload(12_000)
	for _, c := range backendPins {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dev, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			for p, pool := range dev.Pools() {
				blocks := float64(pool.BlocksPerPlane * dev.Geometry().Planes())
				dev.AddArtificialWear(p, int64(1.25*reliability.Default().Endurance*blocks))
			}
			got := pinReplay(t, dev, reqs)
			if got != c.want {
				t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
			}
		})
	}
}

// pinReplay drives reqs through dev and returns the hex digest of every
// result and the device's final accounting.
func pinReplay(t *testing.T, dev storage.Device, reqs []trace.Request) string {
	t.Helper()
	h := sha256.New()
	for i := 0; i < len(reqs); {
		r := reqs[i]
		if i%50 == 49 {
			res, err := dev.Flush(r.Arrival)
			if err != nil {
				t.Fatalf("flush before request %d: %v", i, err)
			}
			fmt.Fprintf(h, "F%+v\n", res)
		}
		if i%16 == 7 && i+1 < len(reqs) && reqs[i+1].Op == r.Op {
			batch := reqs[i : i+2]
			out, err := dev.SubmitPacked(batch[1].Arrival, batch)
			if err != nil {
				t.Fatalf("batch at request %d: %v", i, err)
			}
			fmt.Fprintf(h, "P%+v\n", out)
			i += 2
			continue
		}
		res, err := dev.Submit(r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		fmt.Fprintf(h, "S%+v\n", res)
		i++
	}
	pinState(h, dev)
	return hex.EncodeToString(h.Sum(nil))
}

func pinState(h hash.Hash, dev storage.Device) {
	prefetched, hits := dev.PrefetchStats()
	fmt.Fprintf(h, "M%+v\nT%+v\nC%+v D%d\nB%v R%+v P%d/%d\n",
		dev.Metrics(), dev.FTLStats(), dev.FaultCounts(), dev.FaultDraws(),
		dev.BufferHitRate(), dev.MapCacheStats(), prefetched, hits)
	for p := range dev.Pools() {
		fmt.Fprintf(h, "W%d %+v\n", p, dev.Wear(p))
	}
}

// pinWorkload is a deterministic request mix over a 32 MiB region: reads
// mostly hit written data (half of them continue the previous read's run,
// which read-ahead serves), writes overwrite it (driving GC with live-page
// moves), and the gaps range from back-to-back to multi-second idles
// (queueing, idle destage, light and deep sleep).
func pinWorkload(n int) []trace.Request {
	const regionPages = 8192
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	reqs := make([]trace.Request, 0, n)
	var at int64
	var readEnd uint64
	for i := 0; i < n; i++ {
		x := next()
		switch {
		case x%256 == 0:
			at += 4_000_000_000
		case x%16 == 1:
			at += 300_000_000
		default:
			at += int64(x>>8%6_000_000) + 100_000
		}
		pages := 1 + x>>24%8
		if x>>32%32 == 0 {
			pages = 32
		}
		op := trace.Write
		page := x >> 40 % (regionPages - 32)
		if x>>20%5 < 2 {
			op = trace.Read
			if x>>28%2 == 0 && readEnd+pages < regionPages {
				page = readEnd
			}
			readEnd = page + pages
		}
		reqs = append(reqs, trace.Request{Arrival: at, LBA: page * trace.SectorsPerPage,
			Size: uint32(pages) * trace.PageSize, Op: op})
	}
	return reqs
}

// TestBackendTelemetryInventory pins the metric series and trace event
// names each backend exports after a pinned replay: plain eMMC, eMMC with
// the write buffer, map cache, power model and idle GC, and UFS with and
// without the booster. A change to the device layer cannot rename or drop
// one unnoticed. Channel indices (in tracks and labels) fold to N.
func TestBackendTelemetryInventory(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "telemetry_inventory.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, c := range []struct {
		name string
		make func() (storage.Device, error)
	}{
		{"emmc", pinDevice(func(o *core.Options) {})},
		{"emmc-options", pinDevice(func(o *core.Options) {
			o.WriteBufferBytes = 1 << 20
			o.MapCacheBytes = 16 << 10
			o.PowerSaving = true
			o.GCPolicy = emmc.GCIdle
		})},
		{"ufs", pinDevice(func(o *core.Options) {
			o.Backend = storage.BackendUFS
			o.UFSBoosterBytes = 1 << 20
		})},
		{"ufs-no-booster", pinDevice(func(o *core.Options) {
			o.Backend = storage.BackendUFS
			o.UFSBoosterBytes = -1
		})},
	} {
		dev, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(1 << 20)
		dev.SetTelemetry(reg, tr)
		for p, pool := range dev.Pools() {
			blocks := float64(pool.BlocksPerPlane * dev.Geometry().Planes())
			dev.AddArtificialWear(p, int64(1.25*reliability.Default().Endurance*blocks))
		}
		pinReplay(t, dev, pinWorkload(12_000))
		names := map[string]bool{}
		add := func(name string, _ int64) { names["metric "+channelLabel.ReplaceAllString(name, `channel="N"`)] = true }
		reg.EachCounter(add)
		reg.EachGauge(add)
		reg.EachHistogram(func(name string, _ *telemetry.Histogram) { add(name, 0) })
		for _, ev := range tr.Events() {
			track := strings.TrimRightFunc(ev.Track, unicode.IsDigit)
			if track != ev.Track {
				track += "N"
			}
			names[fmt.Sprintf("event %s %s %s", ev.Layer, track, ev.Name)] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			fmt.Fprintf(&got, "%s %s\n", c.name, n)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("telemetry inventory drifted\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// channelLabel matches a per-channel label value, folded to N.
var channelLabel = regexp.MustCompile(`channel="[0-9]+"`)
