package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"emmcio/internal/telemetry"
)

// Job states. A job moves queued → running → one of the terminal states;
// DELETE can short-circuit queued straight to canceled.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// Error kinds classify a job's terminal error machine-readably, so a
// client (the sweep coordinator) can tell retryable failures from fatal
// ones without parsing the human error string:
//
//   - canceled: DELETE or a server drain stopped the job — the work itself
//     is fine and can run elsewhere;
//   - deadline: the per-job deadline expired — a capacity symptom, worth
//     retrying on a less loaded worker;
//   - runtime: the job's own execution failed — deterministic, so a retry
//     anywhere reproduces it.
//
// The same vocabulary classifies synchronous HTTP errors: every non-2xx
// response carries {"error", "error_kind"} (see writeError), so clients
// branch on the kind instead of status-code heuristics:
//
//   - validation: the request itself is malformed or names unknown things —
//     retrying it anywhere reproduces the rejection;
//   - not_found: the referenced resource does not exist here (it may exist
//     on another worker, or may have been evicted);
//   - conflict: the request contradicts existing state (a device label
//     already naming a different snapshot);
//   - saturated: the admission queue is full — retry after backoff;
//   - unavailable: the server cannot take this work right now (draining, or
//     a surface is not configured) — retry elsewhere;
//   - internal: an unexpected server-side failure.
const (
	ErrKindCanceled    = "canceled"
	ErrKindDeadline    = "deadline"
	ErrKindRuntime     = "runtime"
	ErrKindValidation  = "validation"
	ErrKindNotFound    = "not_found"
	ErrKindConflict    = "conflict"
	ErrKindSaturated   = "saturated"
	ErrKindUnavailable = "unavailable"
	ErrKindInternal    = "internal"
)

// jobFunc is a job's work function. It observes into the job's own child
// registry and tracer — never the server-wide registry — so every metric
// and span it emits is attributable to exactly this job.
type jobFunc func(ctx context.Context, reg *telemetry.Registry, tc *telemetry.Tracer) (any, error)

// job is one asynchronous unit of work: a replay or a sweep submitted over
// HTTP, executed on the server's worker pool under a cancelable context.
type job struct {
	// st is the job's wire form, kept current at each state transition so
	// a status poll copies it instead of formatting anything. Its ID, Kind,
	// Device, FromDevice, links and Created are fixed at admission and may
	// be read without mu; the other fields are guarded by mu.
	st JobStatus
	// seq is the numeric part of the id; listings sort on it so "j10"
	// follows "j9" instead of "j1".
	seq int64
	// reqID is the HTTP request id that admitted the job, joining the
	// job's lifecycle log lines back to the submission.
	reqID string
	run   jobFunc

	// tel is the job's child telemetry registry (scoped under the server
	// registry; merged into it at completion) and tracer its span ring.
	// Both stay attached for as long as the result store retains the job,
	// serving /v1/jobs/{id}/metrics and /trace.
	tel    *telemetry.Registry
	tracer *telemetry.Tracer

	// done closes when the job reaches a terminal state; DELETE handlers
	// and tests wait on it.
	done chan struct{}

	mu sync.Mutex
	// created and started time the queue wait and the run for the log.
	created time.Time
	started time.Time
	// cancel aborts the running job's context (nil unless running).
	cancel context.CancelFunc
	// canceled records that DELETE arrived, so a context error is reported
	// as a cancellation rather than a failure.
	canceled bool
}

// JobStatus is the wire form of a job, served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Device is the storage backend the job runs against (emmc, sd, ufs).
	Device string `json:"device,omitempty"`
	State  string `json:"state"`
	// Created/Started/Finished are RFC 3339 timestamps; Started and
	// Finished are empty until the job reaches those states.
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Error is set for failed (and context-expired canceled) jobs.
	Error string `json:"error,omitempty"`
	// ErrorKind classifies Error machine-readably: canceled, deadline, or
	// runtime (see the ErrKind constants). The human Error string is
	// unchanged; clients branch on this field instead of parsing it.
	ErrorKind string `json:"error_kind,omitempty"`
	// FromDevice is the archived snapshot the job forked, when it ran
	// restore-then-run instead of building a fresh device.
	FromDevice string `json:"from_device,omitempty"`
	// resourceLinks carries the job's metrics/trace URLs (flattened).
	resourceLinks
	// Result is the job's JSON payload, present once state is done:
	// []cliutil.SchemeResult for replays, []SweepOutput for sweeps.
	Result json.RawMessage `json:"result,omitempty"`
}

// status snapshots the job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// finish moves the job to a terminal state and stamps its finish time;
// j.mu is held.
func (j *job) finish(state, errKind string, at time.Time) {
	j.st.State = state
	j.st.ErrorKind = errKind
	j.st.Finished = stamp(at)
}

// stamp formats a state transition's time for JobStatus.
func stamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
