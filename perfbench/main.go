// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the simulator's public packages, checks the
// simulated outputs, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 a separate traced run prints the per-layer
// metrics: host time charged to each layer by wrappers around the calls into
// it, exact model counters read back from public stats, and CPU-profile
// shares by package. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	// tiny shrinks every input to a few hundred requests; the determinism
	// test uses it.
	tiny bool
}

// budget is the timed-phase length. A traced run splits it between an
// uninstrumented half (CPU profile) and an instrumented half.
func (c config) budget() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		d /= 2
	}
	return d
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *ledger) error{
	"file-replay": fileReplay,
	"aged-gc-ufs": agedGC,
	"emmcd-jobs":  emmcdJobs,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 0 || *traced < 0 || *traced > 1 {
		fail(fmt.Errorf("-seconds must be >= 0 and -trace 0 or 1"))
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1}
	l := newLedger()
	if err := run(cfg, l); err != nil {
		fail(err)
	}
	l.meta["workload"] = *name
	l.meta["seed"] = *seed
	l.meta["seconds"] = *seconds
	l.meta["trace"] = *traced
	hostMeta(l.meta)
	if err := l.print(os.Stdout); err != nil {
		fail(err)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger collects what a run attempted, what failed, the metrics, and the
// run metadata.
type ledger struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	meta              map[string]any
	// model holds the run's exact model counters, one line per distinct
	// input, for the seed-determinism test.
	model []string
}

func newLedger() *ledger {
	return &ledger{metrics: map[string]metric{}, meta: map[string]any{}}
}

// record counts one operation; a non-nil err (a replay error, a failed
// check, a refused request) marks it failed.
func (l *ledger) record(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.problems) < 20 {
			l.problems = append(l.problems, err.Error())
		}
	}
}

func (l *ledger) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the metric table and the metadata, then the result object
// as the last line.
func (l *ledger) print(f *os.File) error {
	for _, p := range l.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	names := make([]string, 0, len(l.metrics))
	for n := range l.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := l.metrics[n]
		fmt.Fprintf(f, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	meta, err := json.Marshal(map[string]any{"meta": l.meta})
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", meta)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{l.failed == 0 && l.attempted > 0, l.attempted, l.failed, l.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", out)
	return err
}

// endToEnd sets the end-to-end metrics every workload reports. Every host
// time in them is in reference seconds (see hostClock); the meta line
// gives the host factors the times were scaled by.
func (l *ledger) endToEnd(setups []float64, ph phase, jobMs []float64) {
	l.set("setup_s", "s", median(setups))
	l.set("req_per_s", "1/s", rate(ph))
	l.set("allocs_per_req", "count", float64(ph.rt.allocs)/float64(ph.reqs))
	l.set("peak_rss_mb", "MiB", peakRSSMiB())
	l.set("job_ms_p50", "ms", quantile(jobMs, 0.5))
	l.set("job_ms_p90", "ms", quantile(jobMs, 0.9))
	l.meta["requests"] = ph.reqs
	if len(ph.hostFactors) > 0 {
		l.meta["wall_req_per_s"] = float64(ph.reqs) / ph.wall.Seconds()
		l.meta["host_factor"] = map[string]float64{
			"p10": quantile(ph.hostFactors, 0.1), "p50": median(ph.hostFactors), "p90": quantile(ph.hostFactors, 0.9),
		}
	}
	l.meta["jobs"] = len(jobMs)
	l.meta["samples"] = map[string]int{"setup_s": len(setups), "job_ms_p50": len(jobMs), "job_ms_p90": len(jobMs)}
}

// tracedPhases sets the per-layer metrics every traced run takes from its
// uninstrumented, profiled half (plain) and its instrumented half: Go
// runtime costs, CPU shares, and the instrumentation's overhead.
func (l *ledger) tracedPhases(plain, traced phase) {
	l.layer("go.gc_cycles_per_1k_req", float64(plain.rt.gcCycles)*1000/float64(plain.reqs))
	l.layer("go.alloc_bytes_per_req", float64(plain.rt.allocBytes)/float64(plain.reqs))
	for _, c := range cpuLayers {
		l.set("cpu."+c, "share", plain.cpu[c])
	}
	l.meta["cpu_profile_samples"] = plain.cpuSamples
	l.layer("bench.trace_overhead_x", rate(plain)/rate(traced))
}

// rate is a phase's simulated requests per host second of its operations.
func rate(ph phase) float64 { return float64(ph.reqs) / ph.elapsed.Seconds() }

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostMeta records the host fingerprint a result was measured on.
func hostMeta(m map[string]any) {
	m["cpu_model"] = cpuModel()
	m["nproc"] = runtime.NumCPU()
	m["gomaxprocs"] = runtime.GOMAXPROCS(0)
	m["go_version"] = runtime.Version()
	m["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// seedFrac derives a number in [0, 1) for input i from the run seed.
func seedFrac(seed, i uint64) float64 { return float64(subSeed(seed, i)>>11) / (1 << 53) }

// subSeed derives an independent seed for input i from the run seed
// (splitmix64), so each generated input gets its own stream.
func subSeed(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // a zero seed means "default" to the generators
	}
	return z
}
