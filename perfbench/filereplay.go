package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"emmcio/internal/core"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// The file-replay mix holds all 25 application profiles, each shrunk to
// 1/mixShrink of its requests and duration (about 26k requests in all) so
// one replay takes under 200 ms and a run holds over a hundred of them.
// Each application starts at a seeded offset below mixOffsetNs.
const (
	mixShrink     = 9
	mixShrinkTiny = 200
	mixOffsetNs   = 30_000_000_000
)

// fileInput is the encoded trace file and the reference replay of the
// in-memory trace it was encoded from.
type fileInput struct {
	bioz   []byte
	n      int64
	writes int64
	ref    devState
}

// buildMix generates the seeded 25-app mix, merged by arrival time the way
// the block layer sees concurrently running applications. The seed sets
// when each application starts, so it changes the interleaving and every
// simulated timing; each application's requests are the repository's
// canonical ones (workload.DefaultSeed), so every seed costs the same host
// work. Generating the request contents from the seed instead moved the
// replay cost by up to 40% between seeds (a few huge CameraVideo and
// Installing writes dominate), which no run length averages away.
func buildMix(seed uint64, shrink int) (*trace.Trace, error) {
	all := workload.All()
	srcs := make([]trace.Stream, len(all))
	for i, p := range all {
		q := *p
		q.Requests = max(1, q.Requests/shrink)
		q.DurationSec /= float64(shrink)
		offset := int64(seedFrac(seed, uint64(i)) * mixOffsetNs)
		srcs[i] = trace.ShiftStream(q.Stream(workload.DefaultSeed), offset)
	}
	return trace.Collect(trace.MergeStreams("mix25", srcs...))
}

// fileSetup generates the mix, encodes it with the compressed codec
// (BIOZ), and replays the in-memory trace once as the reference every
// decoded replay must match exactly.
func fileSetup(cfg config) (*fileInput, string, error) {
	shrink := mixShrink
	if cfg.tiny {
		shrink = mixShrinkTiny
	}
	tr, err := buildMix(cfg.seed, shrink)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	if err := trace.WriteCompressed(&buf, tr); err != nil {
		return nil, "", err
	}
	dev, err := core.NewDevice(core.SchemeHPS, core.CaseStudyOptions())
	if err != nil {
		return nil, "", err
	}
	if err := replay(dev, core.SchemeHPS, trace.FromSlice(tr), nil, nil); err != nil {
		return nil, "", err
	}
	in := &fileInput{bioz: buf.Bytes(), n: int64(len(tr.Reqs)), writes: int64(tr.WriteCount()), ref: stateOf(dev)}
	return in, fmt.Sprintf("%x %v", sha256.Sum256(in.bioz), in.ref), nil
}

// replayFile is one emmcsim -in replay: a fresh HPS eMMC device with the
// case-study options (telemetry off), the file decoded by the codec's
// sniffing decoder, timestamps cleared, replayed by the streaming loop.
func (in *fileInput) replayFile(times *replayTimes) error {
	dev, err := core.NewDevice(core.SchemeHPS, core.CaseStudyOptions())
	if err != nil {
		return err
	}
	st, err := trace.NewDecoder(bytes.NewReader(in.bioz))
	if err != nil {
		return err
	}
	// The wrapper sits on the decoder itself, so ClearStream's copy counts
	// as core.
	ts := &timedStream{Stream: st}
	if times != nil {
		st = ts
	}
	if err := replay(dev, core.SchemeHPS, trace.ClearStream(st), ts, times); err != nil {
		return err
	}
	return checkReplay(stateOf(dev), in.ref, in.n)
}

func fileReplay(cfg config, l *ledger) error {
	in, setups, err := repeatSetup(l, func() (*fileInput, string, error) { return fileSetup(cfg) })
	if err != nil {
		return err
	}
	l.model = append(l.model, in.ref.String())
	l.meta["file_bytes"] = len(in.bioz)
	l.meta["file_requests"] = in.n

	// Warm-up, instrumented so it can check the replay attached no program
	// telemetry to the device.
	var warm replayTimes
	err = in.replayFile(&warm)
	if err == nil && warm.telemetryAttached {
		err = fmt.Errorf("file-replay attached program telemetry to the device")
	}
	if err == nil && int64(in.ref.F.GC.PageMoves) > in.ref.F.HostProgrammedPages/100 {
		err = fmt.Errorf("file-replay left its role: %d GC page moves for %d host pages", in.ref.F.GC.PageMoves, in.ref.F.HostProgrammedPages)
	}
	l.record(err)

	times, err := replayPhases(cfg, l, setups, func(times *replayTimes) (int64, error) {
		if err := in.replayFile(times); err != nil {
			return 0, err
		}
		return in.n, nil
	})
	if err != nil || times == nil {
		return err
	}
	times.set(l, "trace.decode_ns_per_req", "emmc")
	modelLayers(l, devState{}, in.ref, in.writes)
	return nil
}
