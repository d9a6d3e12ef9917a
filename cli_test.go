package emmcio

// End-to-end CLI smoke tests: build each binary once and drive the
// documented flows against a temp directory. These catch flag wiring and
// format regressions the package tests cannot see.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"emmcio/internal/devstore"
	"emmcio/internal/paper"
)

// buildCLIs compiles every binary into a temp dir, once per test run.
func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	for _, tool := range []string{"biotracer", "tracestat", "emmcsim", "experiments", "tracediff", "emmcd"} {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bins := buildCLIs(t)
	work := t.TempDir()

	// 1. Collect a session.
	out := run(t, filepath.Join(bins, "biotracer"), "-app", "CallIn", "-dir", work)
	if !strings.Contains(out, "CallIn") || !strings.Contains(out, "tracer overhead") {
		t.Fatalf("biotracer output: %s", out)
	}
	tracePath := filepath.Join(work, "CallIn.trace")
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	}

	// 2. Characterize the file.
	out = run(t, filepath.Join(bins, "tracestat"), tracePath)
	for _, want := range []string{"CallIn", "Table III columns", "Table IV columns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tracestat output missing %q:\n%s", want, out)
		}
	}
	// JSON mode parses as JSON-ish (starts with a brace).
	out = run(t, filepath.Join(bins, "tracestat"), "-json", tracePath)
	if !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Fatalf("tracestat -json did not emit JSON:\n%.100s", out)
	}

	// 3. Replay the file on every scheme, then snapshot/resume a device.
	out = run(t, filepath.Join(bins, "emmcsim"), "-in", tracePath)
	for _, want := range []string{"4PS", "8PS", "HPS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("emmcsim output missing %q:\n%s", want, out)
		}
	}

	// 3b. Observability exports: Prometheus metrics + Chrome trace JSON.
	promPath := filepath.Join(work, "out.prom")
	chromePath := filepath.Join(work, "out.json")
	out = run(t, filepath.Join(bins, "emmcsim"), "-in", tracePath, "-scheme", "HPS",
		"-metrics", promPath, "-trace", chromePath, "-trace-buffer", "65536")
	if !strings.Contains(out, "telemetry summary") {
		t.Fatalf("emmcsim did not print a telemetry summary:\n%s", out)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE core_response_ns histogram", "emmc_requests_total{op=\"read\"}", "ftl_"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("metrics file missing %q:\n%.500s", want, prom)
		}
	}
	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, "requests/", "channel/"} {
		if !strings.Contains(string(chrome), want) {
			t.Fatalf("chrome trace missing %q:\n%.500s", want, chrome)
		}
	}
	snap := filepath.Join(work, "dev.snap")
	run(t, filepath.Join(bins, "emmcsim"), "-app", "CallOut", "-scheme", "HPS", "-save", snap)
	out = run(t, filepath.Join(bins, "emmcsim"), "-app", "CallIn", "-scheme", "HPS", "-load", snap)
	if !strings.Contains(out, "HPS") {
		t.Fatalf("resumed replay output:\n%s", out)
	}

	// 4. A fast experiment in all three formats + SVG.
	exp := filepath.Join(bins, "experiments")
	out = run(t, exp, "-exp", "tableV")
	if !strings.Contains(out, "Blocks per plane") {
		t.Fatalf("tableV output:\n%s", out)
	}
	out = run(t, exp, "-exp", "tableV", "-md")
	if !strings.Contains(out, "| Parameter | 4PS | 8PS | HPS |") {
		t.Fatalf("markdown output:\n%s", out)
	}
	out = run(t, exp, "-exp", "tableV", "-csv")
	if !strings.Contains(out, "Parameter,4PS,8PS,HPS") {
		t.Fatalf("csv output:\n%s", out)
	}
	svgDir := filepath.Join(work, "figs")
	run(t, exp, "-exp", "fig3", "-svg", svgDir)
	svg, err := os.ReadFile(filepath.Join(svgDir, "fig3.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Fatal("fig3.svg is not SVG")
	}

	// 5. Compare two schemes' replays with tracediff.
	a := filepath.Join(work, "a.trace")
	bTr := filepath.Join(work, "b.trace")
	run(t, filepath.Join(bins, "emmcsim"), "-app", "CallIn", "-scheme", "4PS", "-o", a)
	run(t, filepath.Join(bins, "emmcsim"), "-app", "CallIn", "-scheme", "HPS", "-o", bTr)
	out = run(t, filepath.Join(bins, "tracediff"), a, bTr)
	if !strings.Contains(out, "mean response") || !strings.Contains(out, "B faster on") {
		t.Fatalf("tracediff output:\n%s", out)
	}

	// 5b. Service-time percentiles from a replayed (timestamped) trace.
	out = run(t, filepath.Join(bins, "tracestat"), "-percentiles", a)
	if !strings.Contains(out, "Service-time percentiles") || !strings.Contains(out, "p99") {
		t.Fatalf("tracestat -percentiles output:\n%s", out)
	}

	// 6. A JSON profile end to end.
	profile := filepath.Join(work, "custom.json")
	profileJSON := `{"name":"Custom","durationSec":60,"requests":200,"writeFrac":0.8,
		"meanReadKB":20,"meanWriteKB":12,"maxKB":256,"spatial":0.2,"temporal":0.3,
		"p4":0.5,"burstFrac":0.7,"burstMeanMs":5}`
	if err := os.WriteFile(profile, []byte(profileJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, filepath.Join(bins, "emmcsim"), "-profile", profile, "-scheme", "4PS")
	if !strings.Contains(out, "Custom") {
		t.Fatalf("profile replay output:\n%s", out)
	}
}

// TestLoadForksLikeFromDevice: -load forks a snapshot file the way
// -from-device forks the same snapshot out of a device store — the fault
// flags replace the archived regime, the replay resumes after the device's
// history, and -device is rejected because the backend is sealed inside —
// so both print the same -json bytes.
func TestLoadForksLikeFromDevice(t *testing.T) {
	emmcsim := filepath.Join(buildCLIs(t), "emmcsim")
	work := t.TempDir()
	snap := filepath.Join(work, "aged.seal")
	run(t, emmcsim, "-app", paper.CallOut, "-scheme", "HPS", "-shrink", "8",
		"-faults", "1", "-fault-seed", "3", "-save", snap)
	sealed, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	store, err := devstore.Open(filepath.Join(work, "store"), devstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := store.Put(sealed, devstore.Meta{Origin: "imported"})
	if err != nil {
		t.Fatal(err)
	}

	replay := func(args ...string) []byte {
		t.Helper()
		args = append([]string{"-app", paper.CallIn, "-scheme", "HPS", "-json"}, args...)
		out, err := exec.Command(emmcsim, args...).Output()
		if err != nil {
			t.Fatalf("emmcsim %v: %v", args, err)
		}
		return out
	}
	loaded := replay("-load", snap, "-faults", "20", "-fault-seed", "9")
	forked := replay("-device-store", store.Dir(), "-from-device", meta.ID, "-faults", "20", "-fault-seed", "9")
	if !bytes.Equal(loaded, forked) {
		t.Errorf("-load diverges from -from-device on the same snapshot:\n-load:\n%s\n-from-device:\n%s", loaded, forked)
	}
	if plain := replay("-load", snap); bytes.Equal(plain, loaded) {
		t.Error("-load -faults 20 printed what plain -load prints; the fault flags were ignored")
	}

	cmd := exec.Command(emmcsim, "-app", paper.CallIn, "-scheme", "HPS", "-load", snap, "-device", "ufs")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("-load with -device ufs succeeded; want a rejection")
	}
	msg := strings.TrimRight(stderr.String(), "\n")
	if !strings.HasPrefix(msg, "emmcsim: ") || strings.Contains(msg, "\n") {
		t.Errorf("-load -device ufs: stderr should be one emmcsim diagnostic line, got %q", stderr.String())
	}
}

// TestExperimentsOutputPins pins the bytes the experiments binary prints
// and the SVG files it writes, so a change to how studies are dispatched
// cannot silently change a table, a note line or a figure.
func TestExperimentsOutputPins(t *testing.T) {
	exp := filepath.Join(buildCLIs(t), "experiments")
	stdout := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(exp, args...).Output()
		if err != nil {
			t.Fatalf("experiments %v: %v", args, err)
		}
		return shaHex(out)
	}
	svgDir := t.TempDir()
	runs := []struct {
		args []string
		sha  string
	}{
		{[]string{"-exp", "all", "-svg", svgDir}, "cbc91b3632d4daa829ddeb1c2308a49eb078386dccf992050f1408c8967973b0"},
		{[]string{"-exp", "ensemble"}, "0ec89be86413213a7387cab30014a251fbfb1a3a2fa030cf250dbd4284bcb2ca"},
		{[]string{"-exp", "tablei,tableii,tableiii,tablev,fig3", "-csv"}, "c49e8e61a2a1dbe60e0c72cc1893aca1ef9116117421e9e75af05e6ecad98d2d"},
		{[]string{"-exp", "tablei,tableii,tableiii,tablev,fig3", "-md"}, "4a5899473bff1b18917422677a17ce2f7cdd194b55b7580d5bff19a992825394"},
	}
	for _, r := range runs {
		if got := stdout(r.args...); got != r.sha {
			t.Errorf("experiments %v: stdout sha256 %s, want %s", r.args, got, r.sha)
		}
	}
	svgs := map[string]string{
		"fig3.svg":  "49af1992b7f39deb1e5227d601fd76068795a0edb6046de133feb53df7b7ae67",
		"fig4.svg":  "ef83f59939e10ee25fce4ad35f7d05a38142f2543894428bd1751f6f0d833ae5",
		"fig5.svg":  "4ca80f311a9be90fefcdd034ca96ef5521f60c5368bfe34afed2c1e299818c8f",
		"fig6.svg":  "f74122fe5f6bd2598198eeabb60f8ed4f7ec4c8d38fad88117090a08ae5cf9b9",
		"fig7a.svg": "3ccc16fc2125f07d9b1d7b984366e9cf64df551d4a4f61800c786a0656a03894",
		"fig7b.svg": "3b806e29c4f6f42dbb9edeca03cc42c5618268f709b7600078663d0afb0f80bd",
		"fig7c.svg": "84b4b5be35f1857932b6eac30cba84858a4dbedebb05cc2bdb2c29147049e1a3",
		"fig8.svg":  "c51b04b41defb1489ea22fb317733f90129fe1581a3a0cd9d178e50ecc49c28b",
		"fig9.svg":  "91f36420d1f3f2a34e393c9a24f48fdfb528ab330f364d3c58220a72d0d266c0",
	}
	entries, err := os.ReadDir(svgDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(svgs) {
		t.Errorf("-svg wrote %d files, want %d", len(entries), len(svgs))
	}
	for name, want := range svgs {
		b, err := os.ReadFile(filepath.Join(svgDir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := shaHex(b); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// TestExperimentsRunCaseStudyOnce checks that naming a §V figure twice
// over prints what naming it once does: -exp fig8,fig9 runs the matrix
// once and keeps the stdout it had when each figure ran it, and -exp
// all,fig8 prints exactly the -exp all bytes TestExperimentsOutputPins
// pins (both sha256s pinned before the change).
func TestExperimentsRunCaseStudyOnce(t *testing.T) {
	exp := filepath.Join(buildCLIs(t), "experiments")
	pins := []struct {
		exp, sha string
	}{
		{"fig8,fig9", "e9b99396f5a1ec039b451b855a1ae2d80bbfcc9f85e7956ed33783de4131adfc"},
		{"all,fig8", "cbc91b3632d4daa829ddeb1c2308a49eb078386dccf992050f1408c8967973b0"},
	}
	for _, p := range pins {
		out, err := exec.Command(exp, "-exp", p.exp).Output()
		if err != nil {
			t.Fatalf("experiments -exp %s: %v", p.exp, err)
		}
		if got := shaHex(out); got != p.sha {
			t.Errorf("experiments -exp %s: stdout sha256 %s, want %s", p.exp, got, p.sha)
		}
	}
}

func shaHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Every example builds and the fast ones run to completion.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs example binaries")
	}
	dir := t.TempDir()
	examples := []struct {
		name string
		args []string
		fast bool
	}{
		{name: "quickstart", fast: true},
		{name: "customapp", fast: true},
		{name: "appcharacterize", args: []string{"-app", "CallIn"}, fast: true},
		{name: "hpscompare", args: []string{"-apps", "CallIn"}, fast: true},
		{name: "gctuning", fast: true},
		{name: "powermode", fast: false}, // replays 8 traces
		{name: "stackamp", args: []string{"-txns", "50"}, fast: true},
		{name: "agingstudy", fast: false},
		{name: "daysim", fast: false},
	}
	for _, ex := range examples {
		bin := filepath.Join(dir, ex.name)
		cmd := exec.Command("go", "build", "-o", bin, "./examples/"+ex.name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", ex.name, err, out)
		}
		if !ex.fast {
			continue
		}
		out := run(t, bin, ex.args...)
		if len(out) == 0 {
			t.Errorf("%s produced no output", ex.name)
		}
	}
}
