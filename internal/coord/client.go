package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/server"
)

// Client is the coordinator's HTTP view of one emmcd worker: health
// probes, sweep submission, job polling, and cancellation over the
// server's existing /healthz and /v1 surfaces. Every request carries the
// client's timeout, so a hung worker costs bounded wall clock, never a
// stuck coordinator goroutine.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a worker client for the given base URL ("http://host:
// port", trailing slash tolerated) with a per-request timeout.
func NewClient(base string, timeout time.Duration) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: timeout},
	}
}

// Base returns the worker's base URL; logs and errors name workers by it.
func (c *Client) Base() string { return c.base }

// BackpressureError is a worker's 429: the queue is full. After is the
// server's Retry-After hint (0 when absent); Queued/QueueCapacity echo
// the JSON body's queue state so backoff can be informed rather than
// blind.
type BackpressureError struct {
	After         time.Duration
	Queued        int
	QueueCapacity int
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("worker queue full (%d/%d queued, retry after %s)",
		e.Queued, e.QueueCapacity, e.After)
}

// StatusError is any other non-2xx worker response. Kind carries the
// server's machine-readable error_kind from the uniform error envelope
// ("" when the body is not the envelope — a proxy's HTML error page, say).
type StatusError struct {
	Code int
	Kind string
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("worker returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// newStatusError builds a StatusError, classifying the body: every emmcd
// non-2xx is the {"error","error_kind"} envelope, so the kind decodes
// directly instead of being guessed from the status code.
func newStatusError(code int, body string) *StatusError {
	se := &StatusError{Code: code, Body: body}
	var eb server.ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err == nil {
		se.Kind = eb.ErrorKind
	}
	return se
}

// Retryable reports whether the failure is a worker-side condition a
// different (or later) worker could serve. The error kind decides when
// present: validation, not_found and conflict are properties of the
// request — the same request fails everywhere — while unavailable and
// saturated are properties of this worker right now. Without a kind
// (non-emmcd middleboxes), 5xx is the retryable line.
func (e *StatusError) Retryable() bool {
	switch e.Kind {
	case server.ErrKindValidation, server.ErrKindNotFound, server.ErrKindConflict:
		return false
	case server.ErrKindUnavailable, server.ErrKindSaturated:
		return true
	}
	return e.Code >= 500
}

// Health probes GET /healthz. A draining worker answers 503, which reads
// as unhealthy here — exactly right for routing: it is finishing old work
// but must not receive new shards.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	return nil
}

// SubmitSweep POSTs a shard's spec to /v1/sweeps and returns the job id.
// A 429 comes back as *BackpressureError carrying the Retry-After header
// and queue state; other non-202s as *StatusError.
func (c *Client) SubmitSweep(ctx context.Context, spec cliutil.SweepSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/sweeps", "application/json", body)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusTooManyRequests {
		be := &BackpressureError{}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			be.After = time.Duration(secs) * time.Second
		}
		var qf server.QueueFullError
		if err := decodeBody(resp.Body, "queue-full body", &qf); err == nil {
			be.Queued, be.QueueCapacity = qf.Queued, qf.QueueCapacity
		}
		return "", be
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := decodeBody(resp.Body, "submit response", &sub); err != nil {
		return "", err
	}
	if sub.ID == "" {
		return "", errors.New("submit response carried no job id")
	}
	return sub.ID, nil
}

// ImportDevice uploads sealed snapshot bytes to the worker's device store
// (POST /v1/devices, octet-stream) and returns the content-derived device
// id the worker archived them under. The import is idempotent on the
// worker side, so pushing an already-present snapshot is a cheap no-op.
func (c *Client) ImportDevice(ctx context.Context, sealed []byte, label string) (string, error) {
	u := "/v1/devices"
	if label != "" {
		u += "?label=" + url.QueryEscape(label)
	}
	resp, err := c.do(ctx, http.MethodPost, u, "application/octet-stream", sealed)
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	var dev struct {
		ID string `json:"id"`
	}
	if err := decodeBody(resp.Body, "import response", &dev); err != nil {
		return "", err
	}
	if dev.ID == "" {
		return "", errors.New("import response carried no device id")
	}
	return dev.ID, nil
}

// Device GETs /v1/devices/{id}: the metadata of a snapshot the worker's
// store holds. A worker that does not hold it answers 404 (*StatusError).
func (c *Client) Device(ctx context.Context, id string) (server.DeviceStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/devices/"+url.PathEscape(id), "", nil)
	if err != nil {
		return server.DeviceStatus{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return server.DeviceStatus{}, newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	var dev server.DeviceStatus
	if err := decodeBody(resp.Body, "device status", &dev); err != nil {
		return server.DeviceStatus{}, err
	}
	return dev, nil
}

// JobStatus GETs /v1/jobs/{id}.
func (c *Client) JobStatus(ctx context.Context, id string) (server.JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	var st server.JobStatus
	if err := decodeBody(resp.Body, "job status", &st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// CancelJob DELETEs /v1/jobs/{id} — queued jobs terminate immediately,
// running ones abort between replay events. 404 is success for our
// purposes: the worker no longer knows the job, so nothing is running.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	return nil
}

// do sends one request to the worker (path is relative to its base URL);
// the caller drains the response.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.hc.Do(req)
}

// maxResultBytes bounds one shard's sweep result. A shard runs one study,
// and the largest, all, marshals to 28,016 bytes; 1 MiB is a ~37x margin.
const maxResultBytes = 1 << 20

// maxBodyBytes bounds every worker response body the coordinator decodes:
// a result plus the job-status fields around it.
const maxBodyBytes = maxResultBytes + 64<<10

// decodeBody decodes one JSON value from a worker response body. A body
// past maxBodyBytes fails with a one-line error instead of being read
// whole.
func decodeBody(r io.Reader, what string, v any) error {
	lr := &io.LimitedReader{R: r, N: maxBodyBytes + 1}
	if err := json.NewDecoder(lr).Decode(v); err != nil {
		if lr.N <= 0 {
			return fmt.Errorf("decoding %s: body exceeds %d bytes", what, maxBodyBytes)
		}
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}

// drain discards the remaining body so the keep-alive connection is
// reusable, then closes it.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck // best-effort drain
	resp.Body.Close()
}

// readSnippet captures the head of an error body for diagnostics.
func readSnippet(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return string(b)
}
