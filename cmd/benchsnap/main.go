// Command benchsnap records and gates the repository's performance
// trajectory. In its default mode it runs the stream/sweep/replay
// benchmark set, parses the `go test -bench` output, and writes a dated
// snapshot `BENCH_<date>.json` next to the ones already committed — one
// point on the trajectory per PR. In -compare mode it loads the two most
// recent snapshots and fails (exit 1) if any benchmark regressed by more
// than -threshold percent in ns/op or allocs/op, which is the `make check`
// gate that keeps speed wins from quietly eroding.
//
//	go run ./cmd/benchsnap            # run benchmarks, write BENCH_<today>.json
//	go run ./cmd/benchsnap -compare   # gate: newest snapshot vs the previous
//
// Noise control: every benchmark runs -count times and the snapshot keeps
// the minimum ns/op (the standard way to strip scheduler noise from a
// deterministic workload); allocs/op is deterministic and compares
// exactly. With fewer than two snapshots -compare prints a notice and
// exits 0, so the gate is a no-op until a baseline exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"emmcio/internal/cliutil"
)

// defaultBench selects the stream/sweep/replay benchmarks: the replay hot
// loop with telemetry off/on, the streaming-vs-slice replay pair, the
// device submit paths, FTL map updates over a sparse address space, trace
// generation, the parallel sweep runner (its serial twin is skipped to keep
// the gate fast; the ratio belongs to BenchmarkSweepRunner's own output),
// the distributed sweep fabric end to end (shard → HTTP workers → merge),
// and the snapshot-fork-vs-reage pair that prices the device store's
// central trade.
const defaultBench = "ReplayTelemetryOff|ReplayTelemetryOn|ReplayStream1k|ReplaySlice1k|ReplayUFS1k|DeviceWrite4K|DeviceRead64K|FTLWrite|TraceGeneration|SweepRunner/parallel|CoordinatorSweep|SnapshotFork"

const defaultPkgs = ".,./internal/core,./internal/coord,./internal/experiments"

// Snapshot is the persisted form of one trajectory point.
type Snapshot struct {
	Schema    int      `json:"schema"`
	Date      string   `json:"date"`
	GoVersion string   `json:"go"`
	Version   string   `json:"version"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Count     int      `json:"count"`
	Results   []Result `json:"results"`
}

// Result is one benchmark's best-of-count numbers. Name is
// "<package>.<benchmark>" so same-named benchmarks in different packages
// cannot collide.
type Result struct {
	Name     string `json:"name"`
	NsOp     int64  `json:"ns_op"`
	BOp      int64  `json:"b_op"`
	AllocsOp int64  `json:"allocs_op"`
}

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_*.json snapshots")
	bench := flag.String("bench", defaultBench, "go test -bench regex")
	pkgs := flag.String("pkgs", defaultPkgs, "comma-separated packages to benchmark")
	benchtime := flag.String("benchtime", "100ms", "go test -benchtime per benchmark")
	count := flag.Int("count", 2, "runs per benchmark; the snapshot keeps the minimum")
	date := flag.String("date", "", "snapshot date (YYYY-MM-DD, default today)")
	compare := flag.Bool("compare", false, "compare the two newest snapshots instead of running benchmarks")
	threshold := flag.Float64("threshold", 15, "regression gate in percent for ns/op and allocs/op")
	showVersion := cliutil.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println(cliutil.VersionLine("benchsnap"))
		return
	}

	if *compare {
		os.Exit(compareLatest(*dir, *threshold))
	}

	day := *date
	if day == "" {
		day = time.Now().Format("2006-01-02")
	}
	results, err := runBenchmarks(*bench, strings.Split(*pkgs, ","), *benchtime, *count)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmarks matched %q", *bench))
	}
	version, goVersion := cliutil.BuildVersion()
	snap := Snapshot{
		Schema:    1,
		Date:      day,
		GoVersion: goVersion,
		Version:   version,
		Bench:     *bench,
		Benchtime: *benchtime,
		Count:     *count,
		Results:   results,
	}
	path, err := snapshotPath(*dir, day)
	if err != nil {
		fatal(err)
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchsnap: wrote %s (%d benchmarks)\n", path, len(results))
}

// snapshotPath picks the file name for day's snapshot. The first snapshot
// of a day is BENCH_<day>.json; later ones the same day get a -2, -3, ...
// suffix instead of overwriting, so multiple points recorded between
// commits (e.g. before and after an optimization) all stay on the
// trajectory.
func snapshotPath(dir, day string) (string, error) {
	for n := 1; ; n++ {
		name := "BENCH_" + day + ".json"
		if n > 1 {
			name = fmt.Sprintf("BENCH_%s-%d.json", day, n)
		}
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}

// snapshotKey orders snapshot paths chronologically: by date, then by the
// same-day suffix. A plain string sort gets this wrong — "-2.json" sorts
// *before* ".json", so BENCH_2026-08-08-2.json would look older than
// BENCH_2026-08-08.json when it is newer.
func snapshotKey(path string) (date string, suffix int) {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	name = strings.TrimPrefix(name, "BENCH_")
	suffix = 1
	if len(name) > 10 && name[10] == '-' {
		if n, err := strconv.Atoi(name[11:]); err == nil {
			date, suffix = name[:10], n
			return date, suffix
		}
	}
	return name, suffix
}

// runBenchmarks shells out to `go test -bench` once and folds the -count
// repetitions down to per-benchmark minima.
func runBenchmarks(bench string, pkgs []string, benchtime string, count int) ([]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-benchmem", "-count", strconv.Itoa(count)}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	return parseBenchOutput(string(out))
}

// parseBenchOutput reads `go test -bench` text: `pkg:` lines scope the
// benchmark names that follow; each result line is
//
//	BenchmarkName-8  123  456 ns/op  789 B/op  7 allocs/op
//
// Repetitions of the same benchmark keep the minimum of every column.
func parseBenchOutput(out string) ([]Result, error) {
	byName := map[string]*Result{}
	var order []string
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the trailing -GOMAXPROCS suffix.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		full := pkg + "." + name
		r := Result{Name: full, NsOp: -1, BOp: -1, AllocsOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad benchmark line %q: %v", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp = int64(v)
			case "B/op":
				r.BOp = int64(v)
			case "allocs/op":
				r.AllocsOp = int64(v)
			}
		}
		if r.NsOp < 0 {
			return nil, fmt.Errorf("benchmark line %q has no ns/op", line)
		}
		prev, ok := byName[full]
		if !ok {
			cp := r
			byName[full] = &cp
			order = append(order, full)
			continue
		}
		if r.NsOp < prev.NsOp {
			prev.NsOp = r.NsOp
		}
		if r.BOp < prev.BOp {
			prev.BOp = r.BOp
		}
		if r.AllocsOp < prev.AllocsOp {
			prev.AllocsOp = r.AllocsOp
		}
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		results = append(results, *byName[name])
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, nil
}

// compareLatest loads the two newest snapshots in dir and gates the
// regression budget. Returns the process exit code.
func compareLatest(dir string, thresholdPct float64) int {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		fatal(err)
	}
	sort.SliceStable(paths, func(i, j int) bool {
		di, si := snapshotKey(paths[i])
		dj, sj := snapshotKey(paths[j])
		if di != dj {
			return di < dj // ISO dates sort chronologically
		}
		return si < sj // then the intra-day -2, -3, ... suffix
	})
	if len(paths) < 2 {
		fmt.Printf("benchsnap: %d snapshot(s) in %s; need two to compare — skipping gate\n", len(paths), dir)
		return 0
	}
	prevPath, curPath := paths[len(paths)-2], paths[len(paths)-1]
	prev, err := loadSnapshot(prevPath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadSnapshot(curPath)
	if err != nil {
		fatal(err)
	}
	report, regressions := Compare(prev, cur, thresholdPct)
	fmt.Printf("benchsnap: %s -> %s (threshold %.0f%%)\n%s",
		filepath.Base(prevPath), filepath.Base(curPath), thresholdPct, report)
	if regressions > 0 {
		fmt.Printf("benchsnap: FAIL — %d regression(s) beyond %.0f%%\n", regressions, thresholdPct)
		return 1
	}
	fmt.Println("benchsnap: OK")
	return 0
}

// Compare renders a per-benchmark delta table and counts regressions: a
// benchmark regresses when ns/op or allocs/op grows past the threshold
// (an allocation count appearing where there was none is always a
// regression — relative growth from zero is infinite). Benchmarks present
// in only one snapshot are reported but never gate, so adding or retiring
// a benchmark does not break the check.
func Compare(prev, cur Snapshot, thresholdPct float64) (report string, regressions int) {
	prevBy := map[string]Result{}
	for _, r := range prev.Results {
		prevBy[r.Name] = r
	}
	var b strings.Builder
	for _, c := range cur.Results {
		p, ok := prevBy[c.Name]
		if !ok {
			fmt.Fprintf(&b, "  %-60s new benchmark (no baseline)\n", c.Name)
			continue
		}
		delete(prevBy, c.Name)
		nsPct := pctDelta(p.NsOp, c.NsOp)
		allocPct := pctDelta(p.AllocsOp, c.AllocsOp)
		bad := nsPct > thresholdPct || allocPct > thresholdPct ||
			(p.AllocsOp == 0 && c.AllocsOp > 0)
		mark := "ok  "
		if bad {
			mark = "FAIL"
			regressions++
		}
		fmt.Fprintf(&b, "  %s %-60s ns/op %d -> %d (%+.1f%%)  allocs/op %d -> %d (%+.1f%%)\n",
			mark, c.Name, p.NsOp, c.NsOp, nsPct, p.AllocsOp, c.AllocsOp, allocPct)
	}
	for name := range prevBy {
		fmt.Fprintf(&b, "  %-60s dropped (was in baseline)\n", name)
	}
	return b.String(), regressions
}

// pctDelta is the relative growth of cur over prev in percent (0 when
// prev is 0; the zero-to-nonzero allocation case is handled separately).
func pctDelta(prev, cur int64) float64 {
	if prev == 0 {
		return 0
	}
	return (float64(cur) - float64(prev)) / float64(prev) * 100
}

func loadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func fatal(err error) { cliutil.Fatal("benchsnap", err) }
