package server

// Job-scoped observability: every replay/sweep job observes into its own
// child telemetry registry and span tracer, which stay attached to the job
// record for as long as the result store retains it. GET
// /v1/jobs/{id}/metrics and /trace answer "what did *this* job's device
// do" — the question the paper's per-application attribution asks — while
// the server-wide /metrics keeps fleet totals because each job's registry
// merges into it on completion.
//
// The HTTP surface is wrapped in a request-logging middleware that assigns
// every request an id (echoed as X-Request-ID and threaded through the
// context), so a job's lifecycle log lines can be joined back to the
// submission that admitted it.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// ctxKey keys context values owned by this package.
type ctxKey int

const reqIDKey ctxKey = iota

// requestIDHeader is X-Request-ID in the canonical form net/http writes,
// so the middleware sets it without canonicalizing per request.
const requestIDHeader = "X-Request-Id"

// requestID returns the middleware-assigned request id ("" outside a
// request).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// withObservedRequests assigns request ids and logs one line per request
// at debug level (status polls are frequent; job lifecycle events carry
// the info-level narrative). With debug off, the line costs one Enabled
// check: no status recorder, clock read or attributes.
func (s *Server) withObservedRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf [24]byte
		id := string(strconv.AppendInt(append(buf[:0], 'r'), s.reqSeq.Add(1), 10))
		w.Header()[requestIDHeader] = []string{id}
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey, id))
		if !s.log.Enabled(r.Context(), slog.LevelDebug) {
			next.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.log.LogAttrs(r.Context(), slog.LevelDebug, "http request",
			slog.String("req", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.Duration("duration", time.Since(start)))
	})
}

// handleJobMetrics serves one job's own metrics in the Prometheus text
// format: the child registry the job observed into, untouched by any other
// job. Available while the job runs (a live view) and for as long as the
// result store retains the terminal job.
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header()["Content-Type"] = metricsContentType
	j.tel.WritePrometheus(w) //nolint:errcheck // streaming body
}

// handleJobTrace serves one job's span tracer as Chrome trace_event JSON,
// loadable in chrome://tracing or ui.perfetto.dev.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if j.tracer == nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, fmt.Errorf("job %q has no trace (per-job tracing disabled)", j.st.ID))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	j.tracer.WriteChromeTrace(w) //nolint:errcheck // streaming body
}

// logger returns cfg.Logger or a drop-everything default, so the library
// is silent unless the embedder opts in (cmd/emmcd wires stderr).
func (cfg Config) logger() *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return slog.New(discardHandler{})
}

// discardHandler drops every record without formatting it.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
