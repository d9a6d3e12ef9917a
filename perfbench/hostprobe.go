package main

import "time"

// The host probe is a fixed memory-bound kernel: it fills a fresh 60k-entry
// hash map and then makes random reads of it and of a 32 MiB array, much
// like the FTL's map updates on a fresh device. On a shared host the
// simulator's speed moves by ±25% within seconds, and by more over
// minutes, as neighbours contend for the caches and memory; the probe's
// time moves with it, while a pure ALU loop does not move at all. An
// untraced replay run probes the host right after every operation and
// divides each operation's host time by the mean host factor of the probes
// on either side of it, the factor being the probe's time over probeRef,
// its time on the reference host. Its end-to-end times are thus in
// reference seconds and follow the program rather than the neighbours:
// over 120–150 s of operations in windows of ten, the CV of a window's
// wall time fell from 0.17 to 0.05 on file replays and from 0.29 to 0.11
// on aged-device cycles when divided by the probe time. Of the kernels
// tried, this one tracked best; one that reused its map (and so allocated
// nothing) tracked half as well. The probe's allocations and GC cycles are
// taken out of the phase's counters. emmcd-jobs scales by the run's median
// factor instead (see emmcdRound).
const (
	probeRef     = 14 * time.Millisecond
	probeEntries = 60_000
	probeReads   = 300_000
)

var (
	probeArray = make([]uint64, 4<<20)
	probeSink  uint64
)

// probe runs the kernel once and returns its wall time.
func probe() time.Duration {
	t := time.Now()
	m := make(map[int64]uint64)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < probeEntries; i++ {
		v := next()
		m[int64(v%(1<<24))] = v
	}
	var s uint64
	for i := 0; i < probeReads; i++ {
		v := next()
		s += probeArray[v%uint64(len(probeArray))] + m[int64(v%(1<<24))]
	}
	probeSink += s + uint64(len(m))
	return time.Since(t)
}

// hostClock scales host times measured between probes to the reference
// host. A nil *hostClock (traced runs) never probes and leaves times as
// they are.
type hostClock struct {
	prev    float64
	factors []float64     // one per scaled interval
	wall    time.Duration // the scaled intervals' summed wall time
	rt      runtimeCounts // what the probes allocated and collected
}

func newHostClock() *hostClock {
	c := &hostClock{}
	c.prev = c.probe()
	c.rt = runtimeCounts{} // the phase starts counting after this probe
	return c
}

// probe runs the kernel and returns the host factor.
func (c *hostClock) probe() float64 {
	before := readRuntime()
	d := probe()
	c.rt = c.rt.add(readRuntime().sub(before))
	return float64(d) / float64(probeRef)
}

// scale probes the host and returns d, a host time measured since the last
// probe, in reference time.
func (c *hostClock) scale(d time.Duration) time.Duration {
	if c == nil {
		return d
	}
	cur := c.probe()
	f := (c.prev + cur) / 2
	c.prev = cur
	c.factors = append(c.factors, f)
	c.wall += d
	return time.Duration(float64(d) / f)
}
