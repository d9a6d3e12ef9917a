package coord

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/paper"
)

// A worker answering with a body past maxBodyBytes gets a one-line error
// from every decoding client call, without the body being read whole.
func TestClientBoundsWorkerBodies(t *testing.T) {
	huge := `{"id":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/devices":
			rw.WriteHeader(http.StatusCreated)
		case r.Method == http.MethodPost:
			rw.WriteHeader(http.StatusAccepted)
		}
		fmt.Fprint(rw, huge)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, 5*time.Second)
	ctx := context.Background()
	calls := map[string]func() error{
		"SubmitSweep": func() error {
			_, err := c.SubmitSweep(ctx, cliutil.SweepSpec{Sweeps: []string{"tablei"}})
			return err
		},
		"JobStatus":    func() error { _, err := c.JobStatus(ctx, "j1"); return err },
		"ImportDevice": func() error { _, err := c.ImportDevice(ctx, []byte("sealed"), ""); return err },
		"Device":       func() error { _, err := c.Device(ctx, "d1"); return err },
	}
	for name, call := range calls {
		err := call()
		if err == nil || !strings.Contains(err.Error(), "exceeds") || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s on an oversized body = %v, want a one-line size error", name, err)
		}
	}
}

// A done job whose result alone is past maxResultBytes is refused: the
// shard fails on that worker instead of being decoded and merged.
func TestOversizedResultRefused(t *testing.T) {
	result := `"` + strings.Repeat("a", maxResultBytes) + `"`
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
		case r.Method == http.MethodPost:
			rw.WriteHeader(http.StatusAccepted)
			fmt.Fprint(rw, `{"id":"j1"}`)
		case r.Method == http.MethodGet:
			fmt.Fprintf(rw, `{"id":"j1","state":"done","result":%s}`, result)
		}
	}))
	defer ts.Close()
	cfg := fastConfig([]string{ts.URL})
	cfg.DisableLocal = true
	cfg.MaxAttempts = 2
	_, err := New(cfg).Run(context.Background(), cliutil.SweepSpec{Sweeps: []string{"casestudy"}, Traces: []string{paper.Idle}})
	if err == nil || !strings.Contains(err.Error(), "-byte bound") {
		t.Errorf("sweep over an oversized result = %v, want the result-size error", err)
	}
}
