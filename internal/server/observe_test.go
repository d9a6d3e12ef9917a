package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/paper"
	"emmcio/internal/telemetry"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading GET %s: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

// referenceReplay runs spec in-process with a fresh registry and tracer the
// same way the server runs a job, returning the expositions a perfectly
// isolated job must reproduce.
func referenceReplay(t *testing.T, spec cliutil.ReplaySpec) (metrics, chromeTrace []byte) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tc := telemetry.NewTracer(0)
	if _, err := spec.Run(context.Background(), 0, reg, tc); err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	var m, c bytes.Buffer
	if err := reg.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if err := tc.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), c.Bytes()
}

// stripWallClock drops the runner_job_wall_ns family — the one series
// measured in wall time rather than simulated time, hence the one series
// that cannot be byte-compared across runs.
func stripWallClock(exposition []byte) string {
	var b strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "runner_job_wall_ns") {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// parseSamples reads every plain sample line (no # comments) into a
// series -> value map, skipping the wall-clock family.
func parseSamples(t *testing.T, exposition []byte) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "runner_job_wall_ns") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestJobObservabilityIsolation is the acceptance test for job-scoped
// observability: two jobs with disjoint workloads run concurrently, and
// each job's /metrics and /trace must be byte-identical (modulo wall clock)
// to a solo in-process replay of the same spec — any cross-job leak would
// shift the counts. The server-wide /metrics must then equal the merge of
// the two per-job snapshots.
func TestJobObservabilityIsolation(t *testing.T) {
	specA := cliutil.ReplaySpec{App: paper.CallIn, Scheme: "4PS"}
	specB := cliutil.ReplaySpec{App: paper.Twitter, Scheme: "HPS"}
	wantMetricsA, wantTraceA := referenceReplay(t, specA)
	wantMetricsB, wantTraceB := referenceReplay(t, specB)

	// Hold both jobs at the start barrier until both workers have one, so
	// the two replays genuinely interleave.
	s := New(Config{Workers: 2})
	var barrier sync.WaitGroup
	barrier.Add(2)
	s.beforeRun = func(*job) { barrier.Done(); barrier.Wait() }
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()

	idA := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn))
	idB := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"HPS"}`, paper.Twitter))
	stA := waitState(t, ts, idA, JobDone, 60*time.Second)
	waitState(t, ts, idB, JobDone, 60*time.Second)

	if stA.MetricsURL != "/v1/jobs/"+idA+"/metrics" || stA.TraceURL != "/v1/jobs/"+idA+"/trace" {
		t.Errorf("job status lacks observability URLs: %+v", stA)
	}

	for _, tc := range []struct {
		id          string
		wantMetrics []byte
		wantTrace   []byte
	}{
		{idA, wantMetricsA, wantTraceA},
		{idB, wantMetricsB, wantTraceB},
	} {
		code, ctype, gotMetrics := getBody(t, ts, "/v1/jobs/"+tc.id+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET job %s metrics = %d", tc.id, code)
		}
		if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
			t.Errorf("job metrics content type %q, want prometheus text 0.0.4", ctype)
		}
		if got, want := stripWallClock(gotMetrics), stripWallClock(tc.wantMetrics); got != want {
			t.Errorf("job %s metrics differ from a solo replay (cross-job contamination?)\n--- got ---\n%s--- want ---\n%s",
				tc.id, got, want)
		}
		code, ctype, gotTrace := getBody(t, ts, "/v1/jobs/"+tc.id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET job %s trace = %d", tc.id, code)
		}
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("job trace content type %q, want application/json", ctype)
		}
		if !bytes.Equal(gotTrace, tc.wantTrace) {
			t.Errorf("job %s trace differs from a solo replay (%d vs %d bytes)",
				tc.id, len(gotTrace), len(tc.wantTrace))
		}
	}

	// Disjoint workloads must disagree somewhere obvious.
	if bytes.Equal(wantMetricsA, wantMetricsB) {
		t.Fatal("test premise broken: the two workloads produced identical metrics")
	}

	// Server-wide /metrics equals the merge of the per-job snapshots: every
	// simulation series is the sum of the two jobs' values.
	code, _, serverMetrics := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	got := parseSamples(t, serverMetrics)
	sum := parseSamples(t, wantMetricsA)
	for k, v := range parseSamples(t, wantMetricsB) {
		sum[k] += v
	}
	for series, want := range sum {
		if got[series] != want {
			t.Errorf("server series %s = %d, want %d (merge of both jobs)", series, got[series], want)
		}
	}
}

func TestJobMetricsAndTraceNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, _ := getBody(t, ts, "/v1/jobs/j999/metrics"); code != http.StatusNotFound {
		t.Errorf("metrics for unknown job = %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts, "/v1/jobs/j999/trace"); code != http.StatusNotFound {
		t.Errorf("trace for unknown job = %d, want 404", code)
	}
}

// TestJobTraceDisabled pins the negative JobTraceCap contract: no tracer is
// attached, the status omits the trace URL, and the endpoint 404s — but the
// job's metrics remain available.
func TestJobTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTraceCap: -1})
	id := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn))
	st := waitState(t, ts, id, JobDone, 30*time.Second)
	if st.TraceURL != "" {
		t.Errorf("trace disabled but status advertises %q", st.TraceURL)
	}
	if code, _, _ := getBody(t, ts, "/v1/jobs/"+id+"/trace"); code != http.StatusNotFound {
		t.Errorf("trace endpoint with tracing disabled = %d, want 404", code)
	}
	if code, _, b := getBody(t, ts, "/v1/jobs/"+id+"/metrics"); code != http.StatusOK ||
		!strings.Contains(string(b), "core_requests_total") {
		t.Errorf("job metrics with tracing disabled = %d", code)
	}
}

func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id1 := resp.Header.Get("X-Request-ID")
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id2 := resp.Header.Get("X-Request-ID")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Errorf("request IDs not unique per request: %q, %q", id1, id2)
	}
}

// syncBuffer is a bytes.Buffer safe for a logger's writes and the test's
// read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDebugRequestLog: with a debug-level logger, every request logs one
// `http request` line whose req is the X-Request-ID the client saw, and a
// replay job's lifecycle lines carry the id of the POST that admitted it.
func TestDebugRequestLog(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, ts := newTestServer(t, Config{Logger: logger})

	// headerIDs lists each response's X-Request-ID with the path asked.
	var headerIDs, paths []string
	do := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		headerIDs = append(headerIDs, resp.Header.Get("X-Request-ID"))
		paths = append(paths, path)
		return b
	}
	do(http.MethodGet, "/healthz", "")
	var sub submitted
	if err := json.Unmarshal(do(http.MethodPost, "/v1/replays",
		fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)), &sub); err != nil {
		t.Fatal(err)
	}
	postID := headerIDs[1]
	for deadline := time.Now().Add(30 * time.Second); ; {
		var st JobStatus
		if err := json.Unmarshal(do(http.MethodGet, "/v1/jobs/"+sub.ID, ""), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || st.State == JobCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s state %q", sub.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	do(http.MethodGet, "/metrics", "")
	do(http.MethodGet, "/v1/jobs/nope", "")
	// Shutdown waits for the worker, so the job's last line is written.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	requestLines := map[string][]string{} // req -> paths logged
	lifecycle := map[string]string{}      // job lifecycle msg -> req
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg  string `json:"msg"`
			Req  string `json:"req"`
			Job  string `json:"job"`
			Path string `json:"path"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		switch {
		case rec.Msg == "http request":
			requestLines[rec.Req] = append(requestLines[rec.Req], rec.Path)
		case rec.Job == sub.ID:
			lifecycle[rec.Msg] = rec.Req
		}
	}
	if len(requestLines) != len(headerIDs) {
		t.Errorf("%d request ids logged, want %d", len(requestLines), len(headerIDs))
	}
	for i, id := range headerIDs {
		if got := requestLines[id]; len(got) != 1 || got[0] != paths[i] {
			t.Errorf("request %d (%s, X-Request-ID %q) logged as %v, want one line", i, paths[i], id, got)
		}
	}
	for _, msg := range []string{"job admitted", "job started", "job finished"} {
		if got, ok := lifecycle[msg]; !ok || got != postID {
			t.Errorf("%q line req = %q (logged %v), want the POST's %q", msg, got, ok, postID)
		}
	}
}

// TestHealthzReportsQueueAndWorkerState pins the extended health payload on
// a healthy server with one gated running job and one queued job.
func TestHealthzReportsQueueAndWorkerState(t *testing.T) {
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	s, ts, gate := gateServer(t, Config{QueueDepth: 4})

	running := submitReplay(t, ts, callIn)
	waitRunning(t, s, 1)
	queued := submitReplay(t, ts, callIn)

	var h Health
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if h.Status != "ok" || h.Workers != 1 || h.Running != 1 || h.Queued != 1 ||
		h.QueueCapacity != 4 || h.Jobs != 2 {
		t.Errorf("health = %+v, want ok/1 worker/1 running/1 queued/cap 4/2 jobs", h)
	}
	if h.States[JobRunning] != 1 || h.States[JobQueued] != 1 {
		t.Errorf("health states = %v, want 1 running + 1 queued", h.States)
	}

	gate <- struct{}{}
	gate <- struct{}{}
	waitState(t, ts, running, JobDone, 30*time.Second)
	waitState(t, ts, queued, JobDone, 30*time.Second)
}

// TestHealthzDrainingReturns503 is the load-balancer contract: the moment a
// drain begins, /healthz flips to 503 {"status":"draining"} so traffic stops
// being routed here while in-flight jobs finish.
func TestHealthzDrainingReturns503(t *testing.T) {
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	s, ts, gate := gateServer(t, Config{QueueDepth: 4})

	id := submitReplay(t, ts, callIn)
	waitRunning(t, s, 1)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var h Health
		code := getJSON(t, ts, "/healthz", &h)
		if code == http.StatusServiceUnavailable {
			if h.Status != "draining" {
				t.Fatalf("healthz 503 status = %q, want draining", h.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never flipped to 503 during drain (last code %d)", code)
		}
		time.Sleep(time.Millisecond)
	}

	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitState(t, ts, id, JobDone, time.Second)
}

// TestBuildInfoGauge checks /metrics carries the build-info series with
// non-empty version labels.
func TestBuildInfoGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, b := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	out := string(b)
	if !strings.Contains(out, "emmcd_build_info{") {
		t.Fatalf("/metrics missing emmcd_build_info:\n%.500s", out)
	}
	line := out[strings.Index(out, "emmcd_build_info{"):]
	line = line[:strings.IndexByte(line, '\n')]
	if !strings.Contains(line, `go_version="go`) || strings.Contains(line, `version=""`) {
		t.Errorf("build info labels incomplete: %s", line)
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("build info gauge value not 1: %s", line)
	}
}

// TestJobTraceWhileRunning reads a running job's trace over and over while
// the replay records into the same ring. Every read must be a well-formed
// Chrome trace, and the job must still be running after the last one, so
// the reads overlapped recording; `make server-race` runs this as the
// tracer's concurrent record/read check.
func TestJobTraceWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Twitter repeated 1000 sessions runs far longer than the reads below.
	id := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"4PS","sessions":1000}`, paper.Twitter))
	waitState(t, ts, id, JobRunning, 10*time.Second)
	// Read until 20 reads have seen spans (the first reads may precede the
	// replay's first request).
	deadline := time.Now().Add(30 * time.Second)
	for i, withSpans := 0, 0; withSpans < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d trace reads held spans", withSpans, i)
		}
		code, _, b := getBody(t, ts, "/v1/jobs/"+id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("GET trace of running job = %d: %s", code, b)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("read %d: trace of running job is not JSON: %v", i, err)
		}
		if len(doc.TraceEvents) > 1 { // more than the process_name record
			withSpans++
		}
	}
	var st JobStatus
	if code := getJSON(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK || st.State != JobRunning {
		t.Fatalf("job state after reads = %q (code %d), want %q", st.State, code, JobRunning)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	waitState(t, ts, id, JobCanceled, 5*time.Second)
}

// TestJobMetricsWhileRunning reads a running job's metrics over and over
// while its replay publishes into the job registry from a private shard.
// Across reads core_requests_total never decreases, reads see it rise
// part-way through the replay, and once the job is done it equals the
// requests the job served; `make server-race` runs this as the shard publication's
// concurrent write/read check.
func TestJobMetricsWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"4PS","sessions":1000}`, paper.CallIn))
	waitState(t, ts, id, JobRunning, 10*time.Second)
	series := [2]string{`core_requests_total{op="read"} `, `core_requests_total{op="write"} `}
	var last [2]int64
	partial := map[int64]bool{} // the totals reads saw while the job ran
	deadline := time.Now().Add(5 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job not done after 5 minutes")
		}
		var st JobStatus
		if code := getJSON(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job = %d", code)
		}
		code, _, b := getBody(t, ts, "/v1/jobs/"+id+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET job metrics = %d: %s", code, b)
		}
		var now [2]int64
		for _, line := range strings.Split(string(b), "\n") {
			for i, prefix := range series {
				if v, ok := strings.CutPrefix(line, prefix); ok {
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						t.Fatalf("bad %s line %q", prefix, line)
					}
					now[i] = n
				}
			}
		}
		for i := range now {
			if now[i] < last[i] {
				t.Fatalf("%s went from %d to %d", series[i], last[i], now[i])
			}
		}
		last = now
		if st.State == JobRunning {
			if total := now[0] + now[1]; total > 0 {
				partial[total] = true
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if st.State != JobDone {
			t.Fatalf("job state %q (err %q), want running then done", st.State, st.Error)
		}
		var results []cliutil.SchemeResult
		if err := json.Unmarshal(st.Result, &results); err != nil || len(results) != 1 {
			t.Fatalf("done job result %s: %v", st.Result, err)
		}
		if total, served := now[0]+now[1], int64(results[0].Metrics.Served); total != served {
			t.Fatalf("done job's core_requests_total = %d, want the %d requests it served", total, served)
		}
		break
	}
	if len(partial) < 2 {
		t.Fatalf("reads of the running job saw %d distinct request totals, want it to rise while it ran", len(partial))
	}
}
