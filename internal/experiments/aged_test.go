package experiments

import (
	"bytes"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
)

// testAgePrep keeps the aging replays test-sized: one session of a small
// trace on a shrunken device, faults on so the injector position is part of
// the archived state under test.
func testAgePrep(backend storage.Backend) AgePrep {
	opt := core.CaseStudyOptions()
	opt.Backend = backend
	opt.ScaleBlocks = 8
	opt.ScalePages = 8
	opt.Faults = &faults.Config{Seed: 21, Rate: 1}
	p := AgePrep{Trace: paper.Email, Sessions: 1, Scheme: core.Scheme4PS}
	p.SetOptions(opt)
	return p
}

// forkFromSealed builds an Env.Fork closure the way the sweep spec does:
// age once, seal, and decode a private fork per call.
func forkFromSealed(t *testing.T, env *Env, p AgePrep) (func() (storage.Device, error), []byte) {
	t.Helper()
	aged, err := AgeDevice(env, p)
	if err != nil {
		t.Fatalf("AgeDevice: %v", err)
	}
	sealed, _, err := storage.Seal(aged)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return func() (storage.Device, error) {
		dev, _, err := core.RestoreSealed("aged-test", bytes.NewReader(sealed))
		return dev, err
	}, sealed
}

// TestForkDeterminism is the store's central claim: age once, fork twice,
// and re-age from scratch — all three devices replay the same trace to
// byte-identical metrics, on both gob layouts (eMMC and UFS), with the
// fault injector resuming from the archived draw position.
func TestForkDeterminism(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendUFS} {
		t.Run(string(backend), func(t *testing.T) {
			env := DefaultEnv()
			p := testAgePrep(backend)
			fork, _ := forkFromSealed(t, env, p)

			replay := func(dev storage.Device) (core.Metrics, int64) {
				m, err := core.Replay(env.context(), dev, p.Scheme, core.Resume(dev, env.Stream(paper.Movie)), core.ReplayOpts{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				return m, dev.FaultDraws()
			}

			forkA, err := fork()
			if err != nil {
				t.Fatal(err)
			}
			forkB, err := fork()
			if err != nil {
				t.Fatal(err)
			}
			if forkA.FaultDraws() == 0 {
				t.Fatal("prep drew no fault decisions; the test is not exercising injector resume")
			}
			if forkA.FaultDraws() != forkB.FaultDraws() {
				t.Fatalf("two forks restored to different draw positions: %d vs %d",
					forkA.FaultDraws(), forkB.FaultDraws())
			}
			reaged, err := AgeDevice(env, p)
			if err != nil {
				t.Fatal(err)
			}
			if reaged.FaultDraws() != forkA.FaultDraws() {
				t.Fatalf("re-aged injector at draw %d, forks at %d", reaged.FaultDraws(), forkA.FaultDraws())
			}

			mA, drawsA := replay(forkA)
			mB, drawsB := replay(forkB)
			mR, drawsR := replay(reaged)
			if mA != mB {
				t.Errorf("two forks diverge:\n fork A %+v\n fork B %+v", mA, mB)
			}
			if mA != mR {
				t.Errorf("fork diverges from re-aged device:\n fork    %+v\n re-aged %+v", mA, mR)
			}
			if drawsA != drawsB || drawsA != drawsR {
				t.Errorf("post-replay draw positions diverge: forks %d/%d, re-aged %d",
					drawsA, drawsB, drawsR)
			}
		})
	}
}

// TestAgedStudyFastPathBitIdentical: a sweep replays the same metrics and
// ends at the same injector position whether every job re-ages its own
// device (slow path, ReplayJob.Device) or forks the one archived snapshot
// (fast path, Env.Fork) — the acceptance contract of the store, held on
// Env.Replays, the path sweep jobs run.
func TestAgedStudyFastPathBitIdentical(t *testing.T) {
	p := testAgePrep(storage.BackendEMMC)
	traces := []string{paper.Movie, paper.Email}
	plan := func(device func() (storage.Device, error)) []ReplayJob {
		jobs := make([]ReplayJob, len(traces))
		for i, name := range traces {
			jobs[i] = ReplayJob{Trace: name, Scheme: p.Scheme, Device: device}
		}
		return jobs
	}

	slow := DefaultEnv()
	slowRes, err := slow.Replays("aged", plan(func() (storage.Device, error) { return AgeDevice(slow, p) }))
	if err != nil {
		t.Fatalf("slow path: %v", err)
	}

	fast := DefaultEnv()
	fast.Fork, _ = forkFromSealed(t, fast, p)
	fastRes, err := fast.Replays("aged", plan(nil))
	if err != nil {
		t.Fatalf("fast path: %v", err)
	}

	for i, name := range traces {
		s, f := slowRes[i], fastRes[i]
		if s.Metrics.Served == 0 {
			t.Fatalf("%s: degenerate replay", name)
		}
		if s.Metrics != f.Metrics {
			t.Errorf("%s: fast path diverges from re-aging:\n re-aged %+v\n forked  %+v", name, s.Metrics, f.Metrics)
		}
		sd, fd := s.Device.FaultDraws(), f.Device.FaultDraws()
		if sd == 0 {
			t.Errorf("%s: no fault draws; the test is not exercising injector resume", name)
		}
		if sd != fd {
			t.Errorf("%s: post-replay draw positions diverge: re-aged %d, forked %d", name, sd, fd)
		}
	}
}

// BenchmarkSnapshotFork compares producing a worn device by forking the
// archived snapshot against re-aging fresh flash — the economics that
// justify the store (restore must be several times cheaper than re-aging).
// The prep is a realistic aging run — several sessions of the write-heavy
// Twitter trace — not the test-sized one: the store exists for preps whose
// replay dwarfs a snapshot decode, and the benchmark measures that regime.
func BenchmarkSnapshotFork(b *testing.B) {
	env := DefaultEnv()
	p := testAgePrep(storage.BackendEMMC)
	p.Trace = paper.Twitter
	p.Sessions = 8
	aged, err := AgeDevice(env, p)
	if err != nil {
		b.Fatal(err)
	}
	sealed, _, err := storage.Seal(aged)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("reage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AgeDevice(env, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RestoreSealed("bench", bytes.NewReader(sealed)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
