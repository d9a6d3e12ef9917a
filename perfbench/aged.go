package main

import (
	"bytes"
	"fmt"
	"time"

	"emmcio/internal/core"
	"emmcio/internal/experiments"
	"emmcio/internal/faults"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// The aged device is a 4PS UFS device shrunk to 128 MiB (1/32 of the blocks,
// 1/8 of the pages per block) with an 8 MiB SLC booster and fault injection
// on, aged by two back-to-back Twitter sessions. Every cycle forks it and
// replays a write-heavy GoogleMaps session, which keeps foreground GC and
// booster destage busy. The seed drives the fault injector and the
// session's arrival rate (a scale in [agedScaleMin, 1)); the requests
// themselves are the canonical ones (workload.DefaultSeed), so every seed
// costs about the same host work.
const (
	agedScaleBlocks = 32
	agedScalePages  = 8
	agedBoosterMiB  = 8
	agedSessions    = 2
	agedApp         = paper.GoogleMaps
	agedScaleMin    = 0.8
	// agedShrinkTiny shrinks the replayed session for the determinism test.
	agedShrinkTiny = 20
)

// agedInput is the sealed aged device, the cycle's stream generator, and
// the reference state of a fork before and after one replay.
type agedInput struct {
	sealed    []byte
	sealMs    float64
	profile   *workload.Profile
	scale     float64
	n, writes int64
	base, ref devState
}

func agedSetup(cfg config) (*agedInput, string, error) {
	opt := core.CaseStudyOptions()
	opt.Backend = storage.BackendUFS
	opt.ScaleBlocks = agedScaleBlocks
	opt.ScalePages = agedScalePages
	opt.UFSBoosterBytes = agedBoosterMiB << 20
	opt.Faults = &faults.Config{Seed: subSeed(cfg.seed, 100), Rate: 1}
	prep := experiments.AgePrep{Trace: paper.Twitter, Sessions: agedSessions, Scheme: core.Scheme4PS}
	prep.SetOptions(opt)
	dev, err := experiments.AgeDevice(experiments.NewEnv(workload.DefaultSeed), prep)
	if err != nil {
		return nil, "", err
	}
	t := time.Now()
	sealed, info, err := storage.Seal(dev)
	if err != nil {
		return nil, "", err
	}
	in := &agedInput{
		sealed: sealed,
		sealMs: float64(time.Since(t).Nanoseconds()) / 1e6,
		scale:  agedScaleMin + (1-agedScaleMin)*seedFrac(cfg.seed, 101),
	}
	p := *workload.DefaultRegistry().Lookup(agedApp)
	if cfg.tiny {
		p.Requests /= agedShrinkTiny
		p.DurationSec /= agedShrinkTiny
	}
	in.profile = &p
	tr, err := trace.Collect(in.profile.Stream(workload.DefaultSeed))
	if err != nil {
		return nil, "", err
	}
	in.n, in.writes = int64(len(tr.Reqs)), int64(tr.WriteCount())

	// The reference cycle: the first fork's state before and after the replay.
	fork, _, err := core.RestoreSealed("aged", bytes.NewReader(sealed))
	if err != nil {
		return nil, "", err
	}
	in.base = stateOf(fork)
	if err := replay(fork, core.Scheme4PS, in.stream(fork), nil, nil); err != nil {
		return nil, "", err
	}
	in.ref = stateOf(fork)
	return in, fmt.Sprintf("%s %v", info.Digest, in.ref), nil
}

// stream is the cycle's request stream: the generated session at the
// seeded arrival rate, shifted to start an idle second after the fork's
// archived history (the resume shift emmcsim and emmcd apply to forks).
func (in *agedInput) stream(dev storage.Device) trace.Stream {
	st := trace.ScaleStream(in.profile.Stream(workload.DefaultSeed), in.scale)
	return trace.ShiftStream(st, dev.LastActivity()+1_000_000_000)
}

// cycle forks the sealed device and replays the generated session on the
// fork, checking that every fork of the seal behaves identically. It
// returns the fork's wall time.
func (in *agedInput) cycle(times *replayTimes) (time.Duration, error) {
	t := time.Now()
	dev, _, err := core.RestoreSealed("aged", bytes.NewReader(in.sealed))
	fork := time.Since(t)
	if err != nil {
		return fork, err
	}
	if got := stateOf(dev); got != in.base {
		return fork, fmt.Errorf("fork restored different counters:\n got %v\nwant %v", got, in.base)
	}
	st := in.stream(dev)
	ts := &timedStream{Stream: st}
	if times != nil {
		st = ts
	}
	if err := replay(dev, core.Scheme4PS, st, ts, times); err != nil {
		return fork, err
	}
	return fork, checkReplay(stateOf(dev), in.ref, in.base.M.Served+in.n)
}

func agedGC(cfg config, l *ledger) error {
	var sealMs []float64
	in, setups, err := repeatSetup(l, func() (*agedInput, string, error) {
		in, fp, err := agedSetup(cfg)
		if err == nil {
			sealMs = append(sealMs, in.sealMs)
		}
		return in, fp, err
	})
	if err != nil {
		return err
	}
	l.model = append(l.model, in.ref.String())
	l.meta["seal_bytes"] = len(in.sealed)
	l.meta["cycle_requests"] = in.n

	// Warm-up, instrumented so it can check the replay attached no program
	// telemetry, plus the checks that the workload stays in its role: heavy
	// GC (write amplification well above 1) and booster destage.
	var warm replayTimes
	_, err = in.cycle(&warm)
	host := in.ref.F.HostProgrammedPages - in.base.F.HostProgrammedPages
	moves := in.ref.F.GC.PageMoves - in.base.F.GC.PageMoves
	destage := (in.ref.M.DestageIdleNs + in.ref.M.DestageStallNs) - (in.base.M.DestageIdleNs + in.base.M.DestageStallNs)
	switch {
	case err != nil:
	case warm.telemetryAttached:
		err = fmt.Errorf("aged-gc-ufs attached program telemetry to the device")
	case host <= 0 || int64(moves) < host:
		err = fmt.Errorf("aged-gc-ufs left its role: write amplification (%d+%d)/%d is below 2", host, moves, host)
	case destage <= 0:
		err = fmt.Errorf("aged-gc-ufs left its role: no booster destage")
	}
	l.record(err)

	var forks []float64
	times, err := replayPhases(cfg, l, setups, func(times *replayTimes) (int64, error) {
		fork, err := in.cycle(times)
		forks = append(forks, float64(fork.Nanoseconds())/1e6)
		if err != nil {
			return 0, err
		}
		return in.n, nil
	})
	l.meta["forks"] = len(forks)
	l.meta["fork_ms_p50"] = median(forks)
	if err != nil || times == nil {
		return err
	}
	times.set(l, "workload.gen_ns_per_req", "ufs")
	l.layer("storage.restore_ms", median(forks))
	l.layer("storage.seal_ms", median(sealMs))
	l.layer("storage.seal_bytes", float64(len(in.sealed)))
	modelLayers(l, in.base, in.ref, in.writes)
	return nil
}
