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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
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
		if err := json.NewDecoder(resp.Body).Decode(&qf); err == nil {
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
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", fmt.Errorf("decoding submit response: %w", err)
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
	u := c.base + "/v1/devices"
	if label != "" {
		u += "?label=" + url.QueryEscape(label)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(sealed))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
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
	if err := json.NewDecoder(resp.Body).Decode(&dev); err != nil {
		return "", fmt.Errorf("decoding import response: %w", err)
	}
	if dev.ID == "" {
		return "", errors.New("import response carried no device id")
	}
	return dev.ID, nil
}

// Device GETs /v1/devices/{id}: the metadata of a snapshot the worker's
// store holds. A worker that does not hold it answers 404 (*StatusError).
func (c *Client) Device(ctx context.Context, id string) (server.DeviceStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/devices/"+url.PathEscape(id), nil)
	if err != nil {
		return server.DeviceStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.DeviceStatus{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return server.DeviceStatus{}, newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	var dev server.DeviceStatus
	if err := json.NewDecoder(resp.Body).Decode(&dev); err != nil {
		return server.DeviceStatus{}, fmt.Errorf("decoding device status: %w", err)
	}
	return dev, nil
}

// JobStatus GETs /v1/jobs/{id}.
func (c *Client) JobStatus(ctx context.Context, id string) (server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, newStatusError(resp.StatusCode, readSnippet(resp.Body))
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.JobStatus{}, fmt.Errorf("decoding job status: %w", err)
	}
	return st, nil
}

// CancelJob DELETEs /v1/jobs/{id} — queued jobs terminate immediately,
// running ones abort between replay events. 404 is success for our
// purposes: the worker no longer knows the job, so nothing is running.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return newStatusError(resp.StatusCode, readSnippet(resp.Body))
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
