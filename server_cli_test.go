package emmcio

// Cross-layer tests for the job service: server results must match the CLI
// byte for byte, the CLIs must fail loudly (one diagnostic line, exit 1) on
// broken inputs, and emmcd must drain cleanly on SIGTERM.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/paper"
	"emmcio/internal/server"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// TestServerReplayMatchesCLI is the determinism contract from the service
// redesign: a replay job's stored result must be byte-identical (modulo
// indentation) to `emmcsim -json` for the same spec.
func TestServerReplayMatchesCLI(t *testing.T) {
	bins := buildCLIs(t)

	cmd := exec.Command(filepath.Join(bins, "emmcsim"), "-app", paper.CallIn, "-json")
	cliOut, err := cmd.Output() // stdout only: the telemetry summary goes to stderr
	if err != nil {
		t.Fatalf("emmcsim -json: %v", err)
	}

	st := runJob(t, "/v1/replays", fmt.Sprintf(`{"app":%q}`, paper.CallIn))

	var cliNorm, srvNorm bytes.Buffer
	if err := json.Compact(&cliNorm, cliOut); err != nil {
		t.Fatalf("CLI emitted invalid JSON: %v\n%s", err, cliOut)
	}
	if err := json.Compact(&srvNorm, st.Result); err != nil {
		t.Fatalf("server stored invalid JSON: %v\n%s", err, st.Result)
	}
	if !bytes.Equal(cliNorm.Bytes(), srvNorm.Bytes()) {
		t.Errorf("server result diverges from emmcsim -json:\nCLI:    %s\nserver: %s",
			cliNorm.Bytes(), srvNorm.Bytes())
	}
}

// TestServerSweepMatchesCLI: any study on the list runs as an emmcd sweep
// job, and its tables print exactly as `experiments -exp` prints them. cq
// is a study the server could not run before the list was shared.
func TestServerSweepMatchesCLI(t *testing.T) {
	bins := buildCLIs(t)
	cliOut, err := exec.Command(filepath.Join(bins, "experiments"), "-exp", "cq").Output()
	if err != nil {
		t.Fatalf("experiments -exp cq: %v", err)
	}

	st := runJob(t, "/v1/sweeps", `{"sweeps":["cq"]}`)
	var res []cliutil.SweepResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	var srv bytes.Buffer
	for _, r := range res {
		for _, tbl := range r.Tables {
			if err := tbl.WriteText(&srv); err != nil {
				t.Fatal(err)
			}
			srv.WriteString("\n")
		}
	}
	if srv.String() != string(cliOut) {
		t.Errorf("sweep job tables diverge from the CLI:\nCLI:\n%s\nserver:\n%s", cliOut, srv.String())
	}
}

// runJob submits body to an in-process emmcd at path and polls the job to
// done, failing the test if it fails or takes over a minute.
func runJob(t *testing.T, path, body string) server.JobStatus {
	t.Helper()
	svc := server.New(server.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var st server.JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == server.JobDone {
			return st
		}
		if st.State == server.JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %q (error %q)", st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writeTruncatedTrace writes a valid BIO1 trace file and chops it mid-record.
func writeTruncatedTrace(t *testing.T, dir string) string {
	t.Helper()
	tr := workload.DefaultRegistry().Lookup(paper.CallIn).Generate(workload.DefaultSeed)
	path := filepath.Join(dir, "truncated.btrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinaryStream(f, trace.FromSlice(tr)); err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(info.Size()/2 + 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestToolDiagnostics pins the failure contract for the read-only tools
// and emmcsim's spec validation: unreadable or truncated inputs and
// out-of-range flags exit non-zero with a single prefixed diagnostic line
// on stderr, never a recovered panic.
func TestToolDiagnostics(t *testing.T) {
	bins := buildCLIs(t)
	work := t.TempDir()
	truncated := writeTruncatedTrace(t, work)
	missing := filepath.Join(work, "does-not-exist.trace")
	good := filepath.Join(work, "good.trace")
	run(t, filepath.Join(bins, "biotracer"), "-app", paper.CallIn, "-dir", work)
	if err := os.Rename(filepath.Join(work, paper.CallIn+".trace"), good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		tool string
		args []string
	}{
		{"tracestat missing file", "tracestat", []string{missing}},
		{"tracestat truncated trace", "tracestat", []string{truncated}},
		{"tracediff missing file", "tracediff", []string{good, missing}},
		{"tracediff truncated trace", "tracediff", []string{truncated, good}},
		{"emmcsim overflowing stretch", "emmcsim", []string{"-app", paper.Twitter, "-scale", "1e300", "-sessions", "2"}},
		{"emmcsim negative scale", "emmcsim", []string{"-app", paper.Twitter, "-scale", "-1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bins, tc.tool), tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if err == nil || !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("%s %v: err = %v, want non-zero exit", tc.tool, tc.args, err)
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if msg == "" || strings.Contains(msg, "\n") || strings.Contains(msg, "panicked") {
				t.Fatalf("stderr should be one diagnostic line, got %q", stderr.String())
			}
			if !strings.HasPrefix(msg, tc.tool+": ") {
				t.Errorf("diagnostic %q lacks the %q prefix", msg, tc.tool+": ")
			}
		})
	}
}

// TestEmmcdDrainsOnSIGTERM starts the real daemon, puts a replay in flight,
// and verifies SIGTERM produces a clean drain: exit code 0, the drain
// banner, and no "drain incomplete" complaint.
func TestEmmcdDrainsOnSIGTERM(t *testing.T) {
	bins := buildCLIs(t)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(filepath.Join(bins, "emmcd"), "-addr", addr, "-drain-timeout", "60s")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // belt and braces if the test fails early

	base := "http://" + addr
	waitFor(t, 10*time.Second, func() bool {
		r, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		r.Body.Close()
		return r.StatusCode == http.StatusOK
	})

	// A few hundred thousand events: long enough to still be running when
	// the signal lands, short enough to drain well inside the timeout.
	body := fmt.Sprintf(`{"app":%q,"scheme":"4PS","sessions":300}`, paper.CallIn)
	resp, err := http.Post(base+"/v1/replays", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, 10*time.Second, func() bool {
		r, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return false
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var st server.JobStatus
		if json.Unmarshal(b, &st) != nil {
			return false
		}
		return st.State == server.JobRunning || st.State == server.JobDone
	})

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("emmcd exited with %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(90 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("emmcd did not exit after SIGTERM\nstderr:\n%s", stderr.String())
	}

	out := stderr.String()
	for _, want := range []string{"draining", "bye"} {
		if !strings.Contains(out, want) {
			t.Errorf("emmcd stderr missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "drain incomplete") {
		t.Errorf("emmcd reported an incomplete drain:\n%s", out)
	}
}

func waitFor(t *testing.T, timeout time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
