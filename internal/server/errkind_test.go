package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"emmcio/internal/paper"
	"emmcio/internal/telemetry"
)

// TestQueueFull429CarriesRetryAfter: a saturated queue's 429 must carry
// the machine-readable backpressure contract the coordinator keys on — a
// Retry-After header plus queue depth and capacity in the JSON body — not
// just a bare status code.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	callIn := fmt.Sprintf(`{"app":%q,"scheme":"4PS"}`, paper.CallIn)
	s, ts, gate := gateServer(t, Config{QueueDepth: 1})

	running := submitReplay(t, ts, callIn)
	waitRunning(t, s, 1)
	queued := submitReplay(t, ts, callIn)

	resp, err := http.Post(ts.URL+"/v1/replays", "application/json", strings.NewReader(callIn))
	if err != nil {
		t.Fatalf("overflow POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	var qf QueueFullError
	if err := json.NewDecoder(resp.Body).Decode(&qf); err != nil {
		t.Fatalf("decoding 429 body: %v", err)
	}
	if qf.Error == "" {
		t.Error("429 body missing the human error string")
	}
	if qf.Queued != 1 || qf.QueueCapacity != 1 {
		t.Errorf("429 body queue state = %d/%d, want 1/1", qf.Queued, qf.QueueCapacity)
	}

	gate <- struct{}{}
	gate <- struct{}{}
	waitState(t, ts, running, JobDone, 30*time.Second)
	waitState(t, ts, queued, JobDone, 30*time.Second)
}

// enqueueFunc admits a synthetic job running fn, for exercising terminal
// classification without a real replay.
func enqueueFunc(t *testing.T, s *Server, fn func(ctx context.Context) error) *job {
	t.Helper()
	j, err := s.enqueue(context.Background(), "test", "", "", func(ctx context.Context, _ *telemetry.Registry, _ *telemetry.Tracer) (any, error) {
		return nil, fn(ctx)
	})
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	return j
}

// TestErrorKindClassification pins the error_kind wire contract: runtime
// failures, deadline expiries, and cancellations each carry their own
// stable machine-readable kind while the human error string stays free-form.
func TestErrorKindClassification(t *testing.T) {
	t.Run("runtime", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		j := enqueueFunc(t, s, func(context.Context) error { return errors.New("boom") })
		st := waitState(t, ts, j.st.ID, JobFailed, 5*time.Second)
		if st.ErrorKind != ErrKindRuntime {
			t.Errorf("error_kind = %q, want %q", st.ErrorKind, ErrKindRuntime)
		}
		if st.Error != "boom" {
			t.Errorf("human error = %q, want %q (unchanged by classification)", st.Error, "boom")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		s, ts := newTestServer(t, Config{JobTimeout: 20 * time.Millisecond})
		j := enqueueFunc(t, s, func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		})
		st := waitState(t, ts, j.st.ID, JobFailed, 5*time.Second)
		if st.ErrorKind != ErrKindDeadline {
			t.Errorf("error_kind = %q, want %q", st.ErrorKind, ErrKindDeadline)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		started := make(chan struct{})
		j := enqueueFunc(t, s, func(ctx context.Context) error {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		})
		<-started
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
		st := waitState(t, ts, j.st.ID, JobCanceled, 5*time.Second)
		if st.ErrorKind != ErrKindCanceled {
			t.Errorf("error_kind = %q, want %q", st.ErrorKind, ErrKindCanceled)
		}
	})

	t.Run("done_has_no_kind", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		j := enqueueFunc(t, s, func(context.Context) error { return nil })
		st := waitState(t, ts, j.st.ID, JobDone, 5*time.Second)
		if st.ErrorKind != "" {
			t.Errorf("done job error_kind = %q, want empty", st.ErrorKind)
		}
	})
}
