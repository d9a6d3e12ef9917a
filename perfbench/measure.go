package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// setupRuns is how many times each workload builds its inputs; setup_s is
// the median, and every build must produce the same inputs.
const setupRuns = 9

// repeatSetup builds the workload's inputs setupRuns times and returns
// each build's time in reference seconds: its wall time divided by the
// median host factor of the probes run before and after every build (one
// build is too short for its own probes to time it well). fn returns the
// inputs and a fingerprint of them; a fingerprint that differs between
// builds is a failed check. The last build is kept.
func repeatSetup[T any](l *ledger, fn func() (T, string, error)) (T, []float64, error) {
	var (
		in    T
		first string
		secs  []float64
	)
	clock := newHostClock()
	for i := 0; i < setupRuns; i++ {
		t := time.Now()
		v, fp, err := fn()
		d := time.Since(t)
		if err != nil {
			return in, nil, fmt.Errorf("setup: %w", err)
		}
		clock.scale(d)
		secs = append(secs, d.Seconds())
		var check error
		if i == 0 {
			first = fp
		} else if fp != first {
			check = fmt.Errorf("setup %d built different inputs from the same seed", i)
		}
		l.record(check)
		in = v
	}
	f := median(clock.factors)
	for i := range secs {
		secs[i] /= f
	}
	return in, secs, nil
}

// phase is what one timed phase measured.
type phase struct {
	reqs int64 // simulated requests completed
	// elapsed is the summed host time of the operations, in reference
	// time when the phase was calibrated (see hostClock); it leaves out the
	// host probes between them.
	elapsed time.Duration
	// hostFactors are a calibrated phase's host factors, one per interval,
	// and wall its operations' unscaled host time.
	hostFactors []float64
	wall        time.Duration
	rt          runtimeCounts
	// cpu holds the CPU-profile shares when the phase was profiled.
	cpu        map[string]float64
	cpuSamples int
}

// runtimeCounts are the Go runtime's cumulative counters a phase reports.
type runtimeCounts struct {
	allocs, allocBytes, gcCycles uint64
}

func (a runtimeCounts) sub(b runtimeCounts) runtimeCounts {
	return runtimeCounts{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

func (a runtimeCounts) add(b runtimeCounts) runtimeCounts {
	return runtimeCounts{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles}
}

// runtimeSamples is reused so reading the counters allocates nothing.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeCounts {
	metrics.Read(runtimeSamples)
	var v [4]uint64
	for i, s := range runtimeSamples {
		if s.Value.Kind() == metrics.KindUint64 {
			v[i] = s.Value.Uint64()
		}
	}
	// Heap allocations, tiny ones included.
	return runtimeCounts{allocs: v[0] + v[1], allocBytes: v[2], gcCycles: v[3]}
}

// measure runs body as one timed phase: it collects garbage first so each
// phase starts from a settled heap, then records wall time, allocation and
// GC deltas, and (when profile is set) a CPU profile's shares by layer.
// body returns the simulated requests it completed and the host time of
// the operations that completed them. What clock's probes allocated is
// not charged to the phase.
func measure(profile bool, clock *hostClock, body func() (int64, time.Duration, error)) (phase, error) {
	var ph phase
	var prof bytes.Buffer
	runtime.GC()
	before := readRuntime()
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return ph, err
		}
	}
	reqs, elapsed, err := body()
	if profile {
		pprof.StopCPUProfile()
	}
	after := readRuntime()
	if err != nil {
		return ph, err
	}
	ph.reqs, ph.elapsed, ph.wall = reqs, elapsed, elapsed
	ph.rt = after.sub(before)
	if clock != nil {
		ph.rt = ph.rt.sub(clock.rt)
		ph.hostFactors, ph.wall = clock.factors, clock.wall
	}
	if reqs <= 0 || elapsed <= 0 {
		return ph, fmt.Errorf("timed phase completed no requests")
	}
	if profile {
		ph.cpu, ph.cpuSamples, err = cpuShares(prof.Bytes())
	}
	return ph, err
}

// loop runs op back to back until budget has elapsed, always at least
// once, recording each op in l. op returns the simulated requests it
// completed. Each op's host time is scaled by clock (nil leaves wall
// time). It returns the requests, each op's time in ms, and their sum.
func loop(l *ledger, budget time.Duration, clock *hostClock, op func() (int64, error)) (reqs int64, ms []float64, total time.Duration) {
	deadline := time.Now().Add(budget)
	for {
		t := time.Now()
		n, err := op()
		d := clock.scale(time.Since(t))
		total += d
		ms = append(ms, float64(d.Nanoseconds())/1e6)
		l.record(err)
		reqs += n
		if !time.Now().Before(deadline) {
			return reqs, ms, total
		}
	}
}

// replayPhases runs a replay workload's timed phases around op, which
// replays once, instrumented when given non-nil times. Untraced, one
// uninstrumented phase, calibrated by the host probe, sets the end-to-end
// metrics. Traced, an uninstrumented half runs under the CPU profiler and
// an instrumented half fills the returned times; the workload adds its own
// layers to them.
func replayPhases(cfg config, l *ledger, setups []float64, op func(*replayTimes) (int64, error)) (*replayTimes, error) {
	run := func(profile bool, times *replayTimes) (phase, []float64, error) {
		var ms []float64
		// A traced run reports no end-to-end times, and probes would
		// pollute its CPU profile.
		var clock *hostClock
		if !cfg.traced {
			clock = newHostClock()
		}
		ph, err := measure(profile, clock, func() (int64, time.Duration, error) {
			reqs, opMs, total := loop(l, cfg.budget(), clock, func() (int64, error) { return op(times) })
			ms = opMs
			return reqs, total, nil
		})
		return ph, ms, err
	}
	if !cfg.traced {
		ph, ms, err := run(false, nil)
		if err == nil {
			l.endToEnd(setups, ph, ms)
		}
		return nil, err
	}
	zeroLayers(l)
	plain, _, err := run(true, nil)
	if err != nil {
		return nil, err
	}
	times := &replayTimes{}
	traced, _, err := run(false, times)
	if err != nil {
		return nil, err
	}
	l.tracedPhases(plain, traced)
	return times, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hist is a log-linear histogram of nanosecond durations: exact below 64
// ns, then 32 buckets per power of two (about 3% resolution), so per-call
// percentiles cost constant memory however many calls are timed.
type hist struct {
	counts [64 + 58*32]uint64
	n      uint64
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	idx := int(v)
	if v >= 64 {
		e := bits.Len64(v) - 6
		idx = 64 + (e-1)*32 + int(v>>e) - 32
	}
	h.counts[idx]++
	h.n++
}

// histLower returns the smallest value that lands in bucket idx.
func histLower(idx int) float64 {
	if idx < 64 {
		return float64(idx)
	}
	e := (idx-64)/32 + 1
	m := uint64((idx-64)%32 + 32)
	return float64(m << e)
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			lo := histLower(i)
			return lo + (histLower(i+1)-lo)/2
		}
	}
	return 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}
