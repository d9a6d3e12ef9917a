package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/paper"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// newTestServer starts the job service behind an httptest listener. The
// returned gate, when used via Config-sized tests, is wired separately.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading POST %s response: %v", path, err)
	}
	return resp.StatusCode, b
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
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
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, b, err)
		}
	}
	return resp.StatusCode
}

// submitReplay POSTs a replay spec and returns the accepted job id.
func submitReplay(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	code, b := postJSON(t, ts, "/v1/replays", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/replays = %d, want 202; body %s", code, b)
	}
	var sub submitted
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatalf("bad 202 body %q: %v", b, err)
	}
	return sub.ID
}

// waitState polls a job until it reaches want (or any terminal state) and
// returns the final status.
func waitState(t *testing.T, ts *httptest.Server, id, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		if code := getJSON(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		if st.State == want {
			return st
		}
		terminal := st.State == JobDone || st.State == JobFailed || st.State == JobCanceled
		if terminal || time.Now().After(deadline) {
			t.Fatalf("job %s state = %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplayJobHappyPath(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn))
	st := waitState(t, ts, id, JobDone, 30*time.Second)
	if st.Started == "" || st.Finished == "" {
		t.Errorf("done job missing timestamps: %+v", st)
	}
	var results []cliutil.SchemeResult
	if err := json.Unmarshal(st.Result, &results); err != nil {
		t.Fatalf("bad result payload %s: %v", st.Result, err)
	}
	if len(results) != 1 || results[0].Scheme != "4PS" {
		t.Fatalf("results = %+v, want one 4PS entry", results)
	}
	if results[0].Metrics.Served == 0 || results[0].Metrics.MeanResponseNs <= 0 {
		t.Errorf("suspicious metrics: %+v", results[0].Metrics)
	}

	var list []JobStatus
	if code := getJSON(t, ts, "/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("job list = %d entries (code %d), want 1", len(list), code)
	}
	var h Health
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %+v (code %d)", h, code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "emmcd_jobs_completed_total 1") {
		t.Errorf("/metrics missing completed counter:\n%s", body)
	}
	if s.completed.Value() != 1 {
		t.Errorf("completed counter = %d, want 1", s.completed.Value())
	}
}

func TestBadRequestsGet400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/replays", `{"app":`},
		{"unknown field", "/v1/replays", `{"app":"Twitter","bogus":1}`},
		{"unknown app", "/v1/replays", `{"app":"NoSuchApp"}`},
		{"missing app", "/v1/replays", `{}`},
		{"unknown scheme", "/v1/replays", `{"app":"Twitter","scheme":"16PS"}`},
		{"unknown gc", "/v1/replays", `{"app":"Twitter","gc":"eager"}`},
		{"unknown wear", "/v1/replays", `{"app":"Twitter","wear":"perfect"}`},
		{"fault seed without faults", "/v1/replays", `{"app":"Twitter","fault_seed":7}`},
		{"negative scale", "/v1/replays", `{"app":"Twitter","scale":-1}`},
		{"unknown device", "/v1/replays", `{"app":"Twitter","device":"floppy"}`},
		{"no sweeps", "/v1/sweeps", `{}`},
		{"sweep unknown device", "/v1/sweeps", `{"sweeps":["casestudy"],"device":"floppy"}`},
		{"unknown sweep", "/v1/sweeps", `{"sweeps":["fig99"]}`},
		{"unknown sweep trace", "/v1/sweeps", `{"sweeps":["casestudy"],"traces":["NoSuchApp"]}`},
		{"trace unknown app", "/v1/traces", `{"app":"NoSuchApp"}`},
		{"trace missing app", "/v1/traces", `{}`},
		{"trace unknown format", "/v1/traces", `{"app":"Twitter","format":"pcap"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJSON(t, ts, tc.path, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("POST %s %s = %d, want 400; body %s", tc.path, tc.body, code, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("400 body %q lacks an error message", body)
			}
		})
	}
	if code := getJSON(t, ts, "/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
}

// TestOversizedBodyGets400 sends a 2 MiB replay spec: the server stops
// reading at 1 MiB and answers with a one-line validation error.
func TestOversizedBodyGets400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"app":"` + strings.Repeat("a", 2<<20) + `"}`
	code, b := postJSON(t, ts, "/v1/replays", body)
	if code != http.StatusBadRequest {
		t.Fatalf("POST 2 MiB body = %d, want 400; body %.200s", code, b)
	}
	var e ErrorBody
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("bad error body %q: %v", b, err)
	}
	if e.ErrorKind != ErrKindValidation || !strings.Contains(e.Error, "exceeds") || strings.Contains(e.Error, "\n") {
		t.Errorf("oversized body error = %+v, want a one-line validation error", e)
	}
}

// gateServer builds a 1-worker server whose worker blocks at a gate before
// running each job, so tests can fill the queue deterministically.
func gateServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	cfg.Workers = 1
	gate := make(chan struct{})
	s := New(cfg)
	s.beforeRun = func(*job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, ts, gate
}

// waitRunning waits until the server reports n running jobs.
func waitRunning(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.running.Value() != n {
		if time.Now().After(deadline) {
			t.Fatalf("running = %d, want %d", s.running.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	s, ts, gate := gateServer(t, Config{QueueDepth: 1})

	running := submitReplay(t, ts, callIn)
	waitRunning(t, s, 1) // worker holds it at the gate
	queued := submitReplay(t, ts, callIn)

	code, body := postJSON(t, ts, "/v1/replays", callIn)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429; body %s", code, body)
	}
	if s.rejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", s.rejected.Value())
	}

	gate <- struct{}{} // release the running job
	gate <- struct{}{} // and the queued one
	waitState(t, ts, running, JobDone, 30*time.Second)
	waitState(t, ts, queued, JobDone, 30*time.Second)
}

func TestDeleteCancelsQueuedJob(t *testing.T) {
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	s, ts, gate := gateServer(t, Config{QueueDepth: 4})

	running := submitReplay(t, ts, callIn)
	waitRunning(t, s, 1)
	queued := submitReplay(t, ts, callIn)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	st := waitState(t, ts, queued, JobCanceled, time.Second)
	if st.Started != "" {
		t.Errorf("canceled queued job claims it started: %+v", st)
	}

	gate <- struct{}{}
	waitState(t, ts, running, JobDone, 30*time.Second)
	// The worker must skip the canceled job without blocking on the gate a
	// second time; nothing should be running afterwards.
	waitRunning(t, s, 0)
}

// TestShutdownAfterDeleteOfQueuedJob covers the double-close hazard: DELETE
// finalizes a queued job but leaves it on the queue channel, and Shutdown's
// drain loop must skip it rather than close j.done (and bump the canceled
// counter) a second time.
func TestShutdownAfterDeleteOfQueuedJob(t *testing.T) {
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	s, ts, gate := gateServer(t, Config{QueueDepth: 4})

	running := submitReplay(t, ts, callIn)
	waitRunning(t, s, 1)
	queued := submitReplay(t, ts, callIn)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	waitState(t, ts, queued, JobCanceled, time.Second)

	// Shutdown drains the queue — including the already-canceled job still
	// sitting on it — while the running job is released to finish.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitState(t, ts, running, JobDone, time.Second)
	if got := s.canceledC.Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1 (no double count from the drain loop)", got)
	}
}

func TestDeleteCancelsRunningReplayWithinASecond(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A deliberately long job: Twitter repeated 1000 sessions (~14M
	// events) takes far longer than the test; cancellation must not wait
	// for it.
	id := submitReplay(t, ts, fmt.Sprintf(`{"app":%q,"scheme":"4PS","sessions":1000}`, paper.Twitter))
	waitState(t, ts, id, JobRunning, 10*time.Second)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	st := waitState(t, ts, id, JobCanceled, time.Second)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v, want < 1s", elapsed)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("canceled job error = %q, want a cancellation diagnosis", st.Error)
	}
}

func TestShutdownDrainsRunningSweepAndCancelsQueued(t *testing.T) {
	s, ts, gate := gateServer(t, Config{QueueDepth: 4})

	// A real sweep job (restricted to one small trace) held at the gate.
	code, b := postJSON(t, ts, "/v1/sweeps",
		fmt.Sprintf(`{"sweeps":["casestudy"],"traces":[%q]}`, paper.CallIn))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d; body %s", code, b)
	}
	var sub submitted
	if err := json.Unmarshal(b, &sub); err != nil {
		t.Fatal(err)
	}
	sweepID := sub.ID
	waitRunning(t, s, 1)
	queued := submitReplay(t, ts, fmt.Sprintf(`{"app":%q}`, paper.CallIn))

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Admissions must close immediately...
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = postJSON(t, ts, "/v1/replays", fmt.Sprintf(`{"app":%q}`, paper.CallIn))
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("POST during drain = %d, want 503", code)
		}
		time.Sleep(time.Millisecond)
	}
	// ...the queued job is canceled without ever running...
	waitState(t, ts, queued, JobCanceled, 5*time.Second)

	// ...and the in-flight sweep drains to completion once released.
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := waitState(t, ts, sweepID, JobDone, time.Second)
	var out []SweepOutput
	if err := json.Unmarshal(st.Result, &out); err != nil {
		t.Fatalf("bad sweep result %s: %v", st.Result, err)
	}
	if len(out) != 1 || out[0].Name != "casestudy" || len(out[0].Tables) != 2 {
		t.Fatalf("sweep output = %+v, want casestudy with 2 tables", out)
	}
}

func TestTraceEndpointStreamsAllCodecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := workload.DefaultRegistry().Lookup(paper.CallIn).Generate(workload.DefaultSeed)

	for _, format := range []string{"text", "bio1", "bioz"} {
		t.Run(format, func(t *testing.T) {
			code, body := postJSON(t, ts, "/v1/traces",
				fmt.Sprintf(`{"app":%q,"format":%q}`, paper.CallIn, format))
			if code != http.StatusOK {
				t.Fatalf("POST /v1/traces = %d; body %.200s", code, body)
			}
			var st trace.Stream
			var err error
			switch format {
			case "text":
				st = trace.NewTextDecoder(bytes.NewReader(body))
			case "bio1":
				st, err = trace.NewBinaryDecoder(bytes.NewReader(body))
			case "bioz":
				tr, cerr := trace.ReadCompressed(bytes.NewReader(body))
				if cerr != nil {
					t.Fatalf("decoding bioz: %v", cerr)
				}
				st = trace.FromSlice(tr)
			}
			if err != nil {
				t.Fatalf("decoding %s: %v", format, err)
			}
			n := 0
			for {
				req, ok, err := st.Next()
				if err != nil {
					t.Fatalf("request %d: %v", n, err)
				}
				if !ok {
					break
				}
				w := want.Reqs[n]
				if req.LBA != w.LBA || req.Size != w.Size || req.Op != w.Op || req.Arrival != w.Arrival {
					t.Fatalf("request %d = %+v, want %+v", n, req, w)
				}
				n++
			}
			if n != len(want.Reqs) {
				t.Fatalf("decoded %d requests, want %d", n, len(want.Reqs))
			}
		})
	}
}

// TestConcurrentLoad is the in-tree load test: 64 concurrent submissions
// against a queue capped at 16. Accepted jobs must all produce results
// identical to an in-process replay of the same spec; the overflow must be
// clean 429s, not queue growth.
func TestConcurrentLoad(t *testing.T) {
	spec := cliutil.ReplaySpec{App: paper.CallIn, Scheme: "4PS"}
	ref, err := spec.Run(context.Background(), 0, nil, nil)
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	s, ts, gate := gateServer(t, Config{QueueDepth: 16, ResultCap: 128})
	body := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)

	const submissions = 64
	var mu sync.Mutex
	var accepted []string
	rejected := 0
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/replays", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var sub submitted
				if err := json.Unmarshal(b, &sub); err != nil {
					t.Errorf("bad 202 body %q: %v", b, err)
					return
				}
				accepted = append(accepted, sub.ID)
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()

	// With the single worker gated, at most queue(16) + 1 in-flight job can
	// be admitted; everything else must have bounced.
	if len(accepted)+rejected != submissions {
		t.Fatalf("accepted %d + rejected %d != %d", len(accepted), rejected, submissions)
	}
	if len(accepted) > 17 {
		t.Errorf("accepted %d jobs with queue depth 16, want <= 17", len(accepted))
	}
	if rejected < submissions-17 {
		t.Errorf("rejected %d, want >= %d", rejected, submissions-17)
	}
	if got := s.rejected.Value(); got != int64(rejected) {
		t.Errorf("rejected counter = %d, want %d", got, rejected)
	}

	// Release the worker and let every accepted job run to completion.
	go func() {
		for range accepted {
			gate <- struct{}{}
		}
	}()
	for _, id := range accepted {
		st := waitState(t, ts, id, JobDone, 60*time.Second)
		var got any
		if err := json.Unmarshal(st.Result, &got); err != nil {
			t.Fatalf("job %s result: %v", id, err)
		}
		norm, _ := json.Marshal(got)
		var refAny any
		json.Unmarshal(refJSON, &refAny) //nolint:errcheck
		refNorm, _ := json.Marshal(refAny)
		if !bytes.Equal(norm, refNorm) {
			t.Fatalf("job %s result differs from the in-process replay:\n%s\nvs\n%s", id, norm, refNorm)
		}
	}
}

// TestResultStoreEvictsOldest pins the LRU bound: with ResultCap 2, the
// first of three completed jobs must become unknown.
func TestResultStoreEvictsOldest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ResultCap: 2})
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	var ids []string
	for i := 0; i < 3; i++ {
		id := submitReplay(t, ts, callIn)
		waitState(t, ts, id, JobDone, 30*time.Second)
		ids = append(ids, id)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("evicted job GET = %d, want 404", code)
	}
	for _, id := range ids[1:] {
		if code := getJSON(t, ts, "/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("retained job %s GET = %d, want 200", id, code)
		}
	}
}
