package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"emmcio/internal/paper"
)

// sinkWriter is a ResponseWriter that keeps one header map and counts the
// body, so an allocation count sees only the handler's own.
type sinkWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(code int)        { w.code = code }
func (w *sinkWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// serve runs one request through Handler into a reused sinkWriter.
func serve(h http.Handler, w *sinkWriter, req *http.Request) {
	w.code = http.StatusOK
	w.body.Reset()
	h.ServeHTTP(w, req)
}

// doneCallIn runs a CallIn replay job to completion on s and returns its id.
func doneCallIn(t *testing.T, s *Server) string {
	t.Helper()
	w := &sinkWriter{h: http.Header{}}
	body := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	serve(s.Handler(), w, httptest.NewRequest(http.MethodPost, "/v1/replays", bytes.NewBufferString(body)))
	var sub submitted
	if err := json.Unmarshal(w.body.Bytes(), &sub); err != nil || w.code != http.StatusAccepted {
		t.Fatalf("POST /v1/replays = %d %q: %v", w.code, w.body.Bytes(), err)
	}
	s.mu.Lock()
	j := s.jobs[sub.ID]
	s.mu.Unlock()
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("CallIn job did not finish")
	}
	if st := j.status(); st.State != JobDone {
		t.Fatalf("job %s state %q: %s", sub.ID, st.State, st.Error)
	}
	return sub.ID
}

// TestHTTPAllocationBudgets: a status poll and a /metrics scrape through
// the full handler allocate per response, not per field or per series.
// Before responses were rendered into pooled buffers, a CallIn job's status
// GET made 28 allocations, the server's /metrics GET 1,639 and the job's
// own /metrics GET 1,615.
func TestHTTPAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	s, _ := newTestServer(t, Config{})
	id := doneCallIn(t, s)
	h := s.Handler()
	for _, tc := range []struct {
		path   string
		budget float64
	}{
		{"/v1/jobs/" + id, 10},
		{"/metrics", 24},
		{"/v1/jobs/" + id + "/metrics", 24},
	} {
		w := &sinkWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		serve(h, w, req)
		if w.code != http.StatusOK || w.body.Len() == 0 {
			t.Fatalf("GET %s = %d, %d bytes", tc.path, w.code, w.body.Len())
		}
		allocs := testing.AllocsPerRun(100, func() { serve(h, w, req) })
		t.Logf("GET %s: %.1f allocations", tc.path, allocs)
		if allocs > tc.budget {
			t.Errorf("GET %s made %.1f allocations, budget %.0f", tc.path, allocs, tc.budget)
		}
	}
}

// TestWriteJSONMatchesMarshalIndent: the pooled encoder writes exactly
// json.MarshalIndent's two-space form plus a newline, for every response
// shape, also when one buffer serves bodies of different sizes in turn.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	id := doneCallIn(t, s)
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	queued := JobStatus{ID: "j9", Kind: "replay", State: JobQueued, Created: stamp(time.Unix(0, 1)),
		resourceLinks: jobLinks("j9", true)}
	bodies := []any{
		j.status(),
		queued,
		[]JobStatus{j.status(), queued},
		ErrorBody{Error: `unknown job "<j0>" & more`, ErrorKind: ErrKindNotFound},
		QueueFullError{Error: errQueueFull.Error(), ErrorKind: ErrKindSaturated, Queued: 3, QueueCapacity: 4},
		Health{Status: "ok", Queued: 1, QueueCapacity: 64, Workers: 2, Running: 1, Jobs: 2,
			States: map[string]int{JobDone: 1, JobRunning: 1}, UptimeSec: 1.5},
		submitted{ID: id, State: JobQueued, URL: "/v1/jobs/" + id},
	}
	for round := 0; round < 2; round++ {
		for i, v := range bodies {
			want, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			w := httptest.NewRecorder()
			writeJSON(w, http.StatusTeapot, v)
			if w.Code != http.StatusTeapot || w.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("body %d: code %d, Content-Type %q", i, w.Code, w.Header().Get("Content-Type"))
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("body %d differs from MarshalIndent\n--- got ---\n%s\n--- want ---\n%s", i, w.Body.Bytes(), want)
			}
		}
	}
	// The handlers' own bodies: status, error and health.
	h := s.Handler()
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/nope", "/healthz"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var v any
		switch path {
		case "/healthz":
			v = &Health{}
		case "/v1/jobs/nope":
			v = &ErrorBody{}
		default:
			v = &JobStatus{}
		}
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("GET %s body is not MarshalIndent's\n--- got ---\n%s\n--- want ---\n%s", path, w.Body.Bytes(), want)
		}
	}
}
