package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/workload"
)

func TestFoldError(t *testing.T) {
	if got := FoldError(errors.New("just one line")); got != "just one line" {
		t.Errorf("FoldError = %q", got)
	}
	got := FoldError(errors.New("first line\nsecond\nthird"))
	if !strings.HasPrefix(got, "first line") || !strings.Contains(got, "2 more line") {
		t.Errorf("FoldError on multi-line = %q, want first line plus a fold note", got)
	}
	if strings.Contains(got, "\n") {
		t.Errorf("FoldError left a newline in %q", got)
	}
}

func TestFaultConfig(t *testing.T) {
	if _, err := FaultConfig(0, 7, true); err == nil {
		t.Error("seed without -faults rate should be rejected")
	}
	cfg, err := FaultConfig(0, 0, false)
	if err != nil || cfg != nil {
		t.Errorf("rate 0 = (%v, %v), want nil config", cfg, err)
	}
	cfg, err = FaultConfig(1e-6, 0, false)
	if err != nil {
		t.Fatalf("valid rate: %v", err)
	}
	if cfg.Seed == 0 {
		t.Error("unset fault seed should default to a non-zero seed")
	}
}

// TestFlagAndJSONViewsAgree pins the spec's core guarantee: a spec decoded
// from JSON with omitted fields normalizes to the same configuration as one
// parsed from an empty flag command line.
func TestFlagAndJSONViewsAgree(t *testing.T) {
	fromFlags := &ReplaySpec{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fromFlags.BindFlags(fs)
	if err := fs.Parse([]string{"-app", paper.Twitter}); err != nil {
		t.Fatal(err)
	}

	fromJSON := &ReplaySpec{App: paper.Twitter}
	fromJSON.Normalize()

	if fromFlags.Seed != fromJSON.Seed ||
		fromFlags.Scheme != fromJSON.Scheme ||
		fromFlags.GC != fromJSON.GC ||
		fromFlags.Wear != fromJSON.Wear ||
		fromFlags.Sessions != fromJSON.Sessions ||
		fromFlags.Scale != fromJSON.Scale {
		t.Errorf("flag defaults %+v and normalized JSON %+v disagree", fromFlags, fromJSON)
	}
	optsA, errA := fromFlags.DeviceOptions()
	optsB, errB := fromJSON.DeviceOptions()
	if errA != nil || errB != nil {
		t.Fatalf("DeviceOptions: %v / %v", errA, errB)
	}
	if optsA != optsB {
		t.Errorf("device options disagree:\nflags %+v\njson  %+v", optsA, optsB)
	}
}

func TestSchemes(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"all", 3, true},
		{"ALL", 3, true},
		{"4ps", 1, true},
		{"8PS", 1, true},
		{"hps", 1, true},
		{"16PS", 0, false},
	}
	for _, tc := range cases {
		s := &ReplaySpec{Scheme: tc.in}
		got, err := s.Schemes()
		if tc.ok != (err == nil) || len(got) != tc.want {
			t.Errorf("Schemes(%q) = %v, %v; want %d schemes, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec ReplaySpec
	}{
		{"missing app", ReplaySpec{}},
		{"unknown app", ReplaySpec{App: "NoSuchApp"}},
		{"unknown scheme", ReplaySpec{App: paper.Twitter, Scheme: "16PS"}},
		{"unknown gc", ReplaySpec{App: paper.Twitter, GC: "eager"}},
		{"unknown wear", ReplaySpec{App: paper.Twitter, Wear: "perfect"}},
		{"negative scale", ReplaySpec{App: paper.Twitter, Scale: -2}},
		{"negative shrink", ReplaySpec{App: paper.Twitter, Shrink: -1}},
		{"stretch past the clock", ReplaySpec{App: paper.Twitter, Scale: 1e300, Sessions: 2}},
		{"fault seed only", ReplaySpec{App: paper.Twitter, FaultSeed: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(nil); err == nil {
				t.Errorf("Validate(%+v) accepted a bad spec", tc.spec)
			}
		})
	}
	good := ReplaySpec{App: paper.Twitter}
	if err := good.Validate(nil); err != nil {
		t.Errorf("Validate minimal spec: %v", err)
	}
}

func TestPrepareStreamSessionsAndScale(t *testing.T) {
	// stats drains a prepared stream and reports request count plus the
	// last arrival timestamp.
	stats := func(s *ReplaySpec) (int, int64) {
		p := workload.DefaultRegistry().Lookup(paper.CallIn)
		st := s.PrepareStream(p.Stream(workload.DefaultSeed))
		n, last := 0, int64(0)
		for {
			req, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n, last
			}
			last = req.Arrival
			n++
		}
	}
	base, baseLast := stats(&ReplaySpec{})
	if base == 0 || baseLast == 0 {
		t.Fatalf("empty spec produced %d requests ending at %d", base, baseLast)
	}
	if got, _ := stats(&ReplaySpec{Sessions: 3}); got != 3*base {
		t.Errorf("3 sessions = %d requests, want %d", got, 3*base)
	}
	// Scale compresses inter-arrival times, not the request count.
	gotN, gotLast := stats(&ReplaySpec{Scale: 0.5})
	if gotN != base || gotLast >= baseLast {
		t.Errorf("scale 0.5 = %d requests ending at %d, want %d requests ending before %d",
			gotN, gotLast, base, baseLast)
	}
}

// TestRunIsDeterministic replays the same spec twice and expects identical
// metrics — the property the server leans on for CLI-parity.
func TestRunIsDeterministic(t *testing.T) {
	spec := ReplaySpec{App: paper.CallIn, Scheme: "all"}
	a, err := spec.Run(context.Background(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run(context.Background(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("scheme counts = %d, %d; want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scheme %s differs between runs:\n%+v\n%+v", a[i].Scheme, a[i].Metrics, b[i].Metrics)
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := ReplaySpec{App: paper.CallIn}
	if _, err := spec.Run(ctx, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on canceled context = %v, want context.Canceled", err)
	}
}

func TestSweepSpecValidate(t *testing.T) {
	bad := []SweepSpec{
		{},
		{Sweeps: []string{"fig99"}},
		{Sweeps: []string{"tables"}, Traces: []string{"NoSuchApp"}},
		{Sweeps: []string{"tables"}, FaultSeed: 3},
		{Sweeps: []string{"aging"}, DeviceSpec: DeviceSpec{Device: "ufs"}},
		{Sweeps: []string{"all"}, DeviceSpec: DeviceSpec{Device: "sd"}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad sweep spec", s)
		}
	}
	for _, good := range []SweepSpec{
		{Sweeps: []string{"Tables", "faultsweep"}, Traces: []string{paper.Movie}},
		{Sweeps: []string{"aging"}, DeviceSpec: DeviceSpec{Device: "emmc"}},
		{Sweeps: []string{"casestudy"}, DeviceSpec: DeviceSpec{Device: "ufs"}},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("Validate good sweep spec %+v: %v", good, err)
		}
	}
}

// snapshots is a DeviceSource over in-memory sealed snapshots.
type snapshots map[string][]byte

func (m snapshots) OpenDevice(id string) ([]byte, error) {
	if b, ok := m[id]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown device %q", id)
}

// agedSnapshot seals a small 4PS device that replayed one CallIn session
// with fault injection on, so its archived injector is past draw 0.
func agedSnapshot(t *testing.T) []byte {
	t.Helper()
	opt := core.CaseStudyOptions()
	opt.ScaleBlocks, opt.ScalePages = 8, 8
	opt.Faults = &faults.Config{Seed: 11, Rate: 1}
	dev, err := core.NewDevice(core.Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := workload.DefaultRegistry().Lookup(paper.CallIn).Stream(workload.DefaultSeed)
	if _, err := core.Replay(context.Background(), dev, core.Scheme4PS, st, core.ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	if dev.FaultDraws() == 0 {
		t.Fatal("aging drew no fault decisions")
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestSweepSpecEnv: the env carries the spec's seed and context, and a
// from_device spec with Faults > 0 hands out forks already armed with the
// spec's regime: each fork's injector starts at draw 0, not at the archived
// position, and advances when the fork replays.
func TestSweepSpecEnv(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	s := SweepSpec{Sweeps: []string{"tables"}, Workers: 2, Faults: 1, FromDevice: "d1"}
	s.SetDeviceSource(snapshots{"d1": agedSnapshot(t)})
	env, err := s.Env(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if env.Ctx != ctx {
		t.Error("Env did not attach the caller context")
	}
	if env.Seed != workload.DefaultSeed {
		t.Errorf("Seed = %d, want default %d", env.Seed, workload.DefaultSeed)
	}
	for i := 0; i < 2; i++ {
		dev, err := env.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if d := dev.FaultDraws(); d != 0 {
			t.Fatalf("fork %d starts at draw %d, want a fresh injector at 0", i, d)
		}
		if _, err := core.Replay(ctx, dev, core.Scheme4PS, core.Resume(dev, env.Stream(paper.Email)), core.ReplayOpts{}); err != nil {
			t.Fatal(err)
		}
		if dev.FaultDraws() == 0 {
			t.Fatalf("fork %d drew no fault decisions in its replay", i)
		}
	}
	if _, err := (&SweepSpec{Sweeps: []string{"nope"}}).Env(ctx); err == nil {
		t.Error("Env accepted an invalid spec")
	}
}

// TestUnknownDeviceDiagnostic: an unknown -device must fail before any
// replay starts, with a single-line message that names the bad value and
// lists the valid backends — identically on the flag path (cmd/emmcsim)
// and the JSON path (the emmcd server's 400 body).
func TestUnknownDeviceDiagnostic(t *testing.T) {
	check := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("unknown device accepted")
		}
		msg := err.Error()
		if strings.Contains(msg, "\n") {
			t.Errorf("diagnostic is not one line: %q", msg)
		}
		if !strings.Contains(msg, `"floppy"`) {
			t.Errorf("diagnostic %q does not name the bad device", msg)
		}
		for _, want := range []string{"emmc", "sd", "ufs"} {
			if !strings.Contains(msg, want) {
				t.Errorf("diagnostic %q does not list valid backend %q", msg, want)
			}
		}
	}

	t.Run("replay flag path", func(t *testing.T) {
		var spec ReplaySpec
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		spec.BindFlags(fs)
		if err := fs.Parse([]string{"-app", paper.Twitter, "-device", "floppy"}); err != nil {
			t.Fatal(err)
		}
		check(t, spec.Validate(nil))
	})
	t.Run("replay json path", func(t *testing.T) {
		var spec ReplaySpec
		if err := json.Unmarshal([]byte(`{"app":"Twitter","device":"floppy"}`), &spec); err != nil {
			t.Fatal(err)
		}
		check(t, spec.Validate(nil))
	})
	t.Run("sweep json path", func(t *testing.T) {
		var spec SweepSpec
		if err := json.Unmarshal([]byte(`{"sweeps":["casestudy"],"device":"floppy"}`), &spec); err != nil {
			t.Fatal(err)
		}
		check(t, spec.Validate())
	})

	// The valid names all parse, and the device field round-trips JSON.
	var spec ReplaySpec
	if err := json.Unmarshal([]byte(`{"app":"Twitter","device":"ufs","ufs_queue_depth":16}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(nil); err != nil {
		t.Fatalf("valid device rejected: %v", err)
	}
	opt, err := spec.DeviceOptions()
	if err != nil {
		t.Fatal(err)
	}
	if string(opt.Backend) != "ufs" || opt.UFSQueueDepth != 16 {
		t.Errorf("device fields did not reach core.Options: %+v", opt)
	}
}
