// Package server implements emmcd: a long-running HTTP/JSON service that
// exposes the repository's replay and experiment machinery as asynchronous
// jobs. Clients POST a cliutil.ReplaySpec or cliutil.SweepSpec — the same
// structs the CLIs bind their flags to — and poll a job resource for the
// result, which is bit-identical to what the equivalent CLI invocation
// prints (same seed, same stream, same replay loop).
//
// Capacity model: submissions land on a bounded queue and a fixed worker
// pool executes them; a full queue is an immediate 429, never unbounded
// buffering. Every job runs under a cancelable per-job context with a
// deadline, so DELETE aborts a running replay between events in bounded
// time, and Shutdown drains in-flight jobs while canceling queued ones.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/devstore"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

// Config sizes the server's capacity model. The zero value gets sensible
// defaults from New.
type Config struct {
	// QueueDepth bounds the pending-job queue; a submission past it is
	// rejected with 429 (default 64).
	QueueDepth int
	// Workers is how many jobs execute concurrently (default 2). Each job
	// additionally fans its schemes/sweep cells out on its own pool.
	Workers int
	// JobWorkers is the per-job sweep pool width (0 = GOMAXPROCS).
	JobWorkers int
	// ResultCap bounds how many terminal jobs stay queryable; the oldest-
	// finished job is evicted past it (default 64).
	ResultCap int
	// JobTimeout is the per-job deadline (default 10m; negative = none).
	JobTimeout time.Duration
	// Telemetry is the server-wide metrics registry re-exported at
	// /metrics (default: a fresh registry). Jobs observe into their own
	// child registries, which merge into this one on completion, so the
	// fleet totals here always equal the merge of the per-job snapshots.
	Telemetry *telemetry.Registry
	// JobTraceCap bounds each job's span-tracer ring buffer in events
	// (0 = telemetry.DefaultTracerCapacity; negative disables per-job
	// tracing entirely).
	JobTraceCap int
	// Logger receives structured request and job-lifecycle logs (default:
	// discard; cmd/emmcd wires stderr).
	Logger *slog.Logger
	// DeviceStore backs the /v1/devices surface: age jobs archive sealed
	// snapshots into it and from_device jobs fork them. Nil disables the
	// surface (those endpoints answer 503 unavailable).
	DeviceStore *devstore.Store
}

// Server is the emmcd job service. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg Config
	tel *telemetry.Registry
	log *slog.Logger
	mux *http.ServeMux

	// apps resolves application names at admission: the default registry,
	// built once by New rather than per request.
	apps *workload.Registry

	queue    chan *job
	shutdown chan struct{}
	stopOnce sync.Once
	draining atomic.Bool
	wg       sync.WaitGroup
	nextID   atomic.Int64
	reqSeq   atomic.Int64
	started  time.Time
	// admitMu makes enqueue's draining check and queue send atomic with
	// respect to Shutdown's drain loop, so a job can never land on the
	// queue after the drain has emptied it (it would sit "queued" forever
	// with every worker gone).
	admitMu sync.Mutex

	mu        sync.Mutex
	jobs      map[string]*job
	doneOrder []string // terminal job ids, oldest finished first

	submitted  *telemetry.Counter
	rejected   *telemetry.Counter
	completed  *telemetry.Counter
	failed     *telemetry.Counter
	canceledC  *telemetry.Counter
	queueDepth *telemetry.Gauge
	running    *telemetry.Gauge

	// beforeRun, when non-nil, runs on the worker goroutine just before a
	// job's work function. Tests use it to hold workers at a gate so the
	// queue fills deterministically.
	beforeRun func(*job)
}

// New builds the server and starts its worker pool. The pool is
// independent of any HTTP listener, so httptest servers exercise the real
// execution path.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.ResultCap <= 0 {
		cfg.ResultCap = 64
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		tel:      cfg.Telemetry,
		apps:     workload.DefaultRegistry(),
		log:      cfg.logger(),
		queue:    make(chan *job, cfg.QueueDepth),
		shutdown: make(chan struct{}),
		jobs:     map[string]*job{},
		started:  time.Now(),
	}
	version, goVersion := cliutil.BuildVersion()
	s.tel.Gauge("emmcd_build_info",
		telemetry.L("version", version), telemetry.L("go_version", goVersion)).Set(1)
	s.submitted = s.tel.Counter("emmcd_jobs_submitted_total")
	s.rejected = s.tel.Counter("emmcd_jobs_rejected_total")
	s.completed = s.tel.Counter("emmcd_jobs_completed_total")
	s.failed = s.tel.Counter("emmcd_jobs_failed_total")
	s.canceledC = s.tel.Counter("emmcd_jobs_canceled_total")
	s.queueDepth = s.tel.Gauge("emmcd_queue_depth")
	s.running = s.tel.Gauge("emmcd_jobs_running")

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/replays", s.handleReplay)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("POST /v1/traces", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/devices", s.handleDeviceCreate)
	s.mux.HandleFunc("GET /v1/devices", s.handleDevices)
	s.mux.HandleFunc("GET /v1/devices/{id}", s.handleDevice)
	s.mux.HandleFunc("GET /v1/devices/{id}/snapshot", s.handleDeviceSnapshot)
	s.mux.HandleFunc("GET /v1/devices/{id}/forks", s.handleDeviceForks)
	s.mux.HandleFunc("DELETE /v1/devices/{id}", s.handleDeviceDelete)

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API, wrapped in the request-id and logging
// middleware.
func (s *Server) Handler() http.Handler { return s.withObservedRequests(s.mux) }

// errQueueFull and errDraining map to 429 and 503 respectively.
var (
	errQueueFull = errors.New("job queue full; retry later")
	errDraining  = errors.New("server is draining; not accepting work")
)

// enqueue registers a job and places it on the bounded queue. The queue
// send is non-blocking: admission control is an immediate 429, never a
// stalled client holding a connection while memory grows.
//
// Every job gets its own child telemetry registry and span tracer here;
// run observes into those, never into the server-wide registry directly,
// so concurrent jobs cannot contaminate each other's series and
// /v1/jobs/{id}/metrics answers for exactly one job.
func (s *Server) enqueue(ctx context.Context, kind, device, fromDevice string, run jobFunc) (*job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	seq := s.nextID.Add(1)
	j := &job{
		id:         fmt.Sprintf("j%d", seq),
		seq:        seq,
		kind:       kind,
		device:     device,
		fromDevice: fromDevice,
		reqID:      requestID(ctx),
		run:        run,
		tel:        s.tel.Child(),
		done:       make(chan struct{}),
		state:      JobQueued,
		created:    time.Now(),
	}
	if s.cfg.JobTraceCap >= 0 {
		j.tracer = telemetry.NewTracer(s.cfg.JobTraceCap)
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.admitMu.Lock()
	if s.draining.Load() {
		// Shutdown won the race between the check above and the send: its
		// drain loop may already have emptied the queue, so sending now
		// would strand the job. Reject instead.
		s.admitMu.Unlock()
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		return nil, errDraining
	}
	select {
	case s.queue <- j:
		s.admitMu.Unlock()
		s.submitted.Inc()
		s.queueDepth.Set(int64(len(s.queue)))
		s.log.Info("job admitted", "job", j.id, "kind", kind, "device", j.device,
			"req", j.reqID, "queued", len(s.queue))
		return j, nil
	default:
		s.admitMu.Unlock()
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.rejected.Inc()
		return nil, errQueueFull
	}
}

// worker pulls and executes jobs until shutdown. The leading non-blocking
// shutdown check keeps a worker from grabbing yet another queued job when
// both channels are ready during a drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.shutdown:
			return
		default:
		}
		select {
		case <-s.shutdown:
			return
		case j := <-s.queue:
			s.queueDepth.Set(int64(len(s.queue)))
			s.execute(j)
		}
	}
}

// execute runs one job under its cancelable, deadlined context.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.canceled {
		// DELETE beat the worker to it; the handler already finalized.
		j.mu.Unlock()
		return
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	j.state = JobRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.created)
	j.mu.Unlock()

	s.log.Info("job started", "job", j.id, "kind", j.kind, "device", j.device, "req", j.reqID,
		"queue_wait", queueWait)
	s.running.Add(1)
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	res, err := runSafe(ctx, j)
	cancel()
	s.running.Add(-1)

	// Publish whatever the job observed — also for failed and canceled
	// jobs, whose partial I/O did happen — so the server-wide /metrics
	// totals stay the exact merge of every job's registry.
	j.tel.MergeIntoParent()

	var payload json.RawMessage
	if err == nil {
		payload, err = json.Marshal(res)
	}
	j.mu.Lock()
	j.cancel = nil
	j.finished = time.Now()
	runDur := j.finished.Sub(j.started)
	switch {
	case err == nil:
		j.state = JobDone
		j.result = payload
		s.completed.Inc()
	case j.canceled:
		j.state = JobCanceled
		j.err = err.Error()
		j.errKind = ErrKindCanceled
		s.canceledC.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		// The per-job deadline expired (the replay loops return a wrapped
		// context error); distinguish it from the job's own failures so
		// clients know a retry on idler capacity could succeed.
		j.state = JobFailed
		j.err = err.Error()
		j.errKind = ErrKindDeadline
		s.failed.Inc()
	default:
		j.state = JobFailed
		j.err = err.Error()
		j.errKind = ErrKindRuntime
		s.failed.Inc()
	}
	state, errMsg := j.state, j.err
	j.mu.Unlock()
	close(j.done)
	s.retire(j)
	if errMsg == "" {
		s.log.Info("job finished", "job", j.id, "kind", j.kind, "req", j.reqID,
			"state", state, "queue_wait", queueWait, "run", runDur)
	} else {
		s.log.Warn("job finished", "job", j.id, "kind", j.kind, "req", j.reqID,
			"state", state, "queue_wait", queueWait, "run", runDur, "error", errMsg)
	}
}

// runSafe converts a panicking job into a failed one; a bad spec must
// never take the service down.
func runSafe(ctx context.Context, j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return j.run(ctx, j.tel, j.tracer)
}

// retire records a terminal job and evicts the oldest-finished ones past
// the result-store bound, so a long-lived daemon's memory stays flat no
// matter how many jobs it has served.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.ResultCap {
		oldest := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, oldest)
	}
}

// Shutdown stops admissions, cancels queued jobs, and waits for running
// jobs to drain. If ctx expires first, running jobs are hard-canceled (the
// replay loops abort between events) and their exit is awaited before
// returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.shutdown) })
	s.log.Info("draining", "queued", len(s.queue), "running", s.running.Value())

	// Queued jobs that no worker will pick up become canceled now. Under
	// the admit lock, an in-flight enqueue has either already sent (this
	// loop picks the job up) or will observe draining and reject; nothing
	// lands on the queue after the loop empties it.
	s.admitMu.Lock()
	for {
		select {
		case j := <-s.queue:
			j.mu.Lock()
			if j.canceled {
				// DELETE already finalized this queued job and left it on
				// the queue for a worker to discard; closing j.done again
				// would panic.
				j.mu.Unlock()
				continue
			}
			j.canceled = true
			j.state = JobCanceled
			j.errKind = ErrKindCanceled
			j.finished = time.Now()
			j.mu.Unlock()
			close(j.done)
			s.canceledC.Inc()
			s.retire(j)
			s.log.Info("job canceled", "job", j.id, "kind", j.kind, "req", j.reqID,
				"reason", "drain")
		default:
			s.queueDepth.Set(0)
			s.admitMu.Unlock()
			goto wait
		}
	}
wait:
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelRunning()
		<-done
		return ctx.Err()
	}
}

// cancelRunning aborts every running job's context.
func (s *Server) cancelRunning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobRunning {
			j.canceled = true
			if j.cancel != nil {
				j.cancel()
			}
		}
		j.mu.Unlock()
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to report
}

// ErrorBody is the uniform non-2xx envelope: every error response carries
// the human string plus a machine-readable kind from the ErrKind
// vocabulary, so clients (the coordinator above all) classify failures by
// field instead of status-code heuristics or string matching.
type ErrorBody struct {
	Error     string `json:"error"`
	ErrorKind string `json:"error_kind"`
}

func writeError(w http.ResponseWriter, code int, kind string, err error) {
	writeJSON(w, code, ErrorBody{Error: err.Error(), ErrorKind: kind})
}

// QueueFullError is the 429 response body: the uniform error envelope plus
// the queue's depth and capacity at rejection time, so a client's backoff
// can be informed rather than blind (the coordinator reads these to size
// its retry delay and to prefer less-loaded workers).
type QueueFullError struct {
	Error         string `json:"error"`
	ErrorKind     string `json:"error_kind"`
	Queued        int    `json:"queued"`
	QueueCapacity int    `json:"queue_capacity"`
}

// retryAfterSeconds is the Retry-After hint on 429 admission responses.
// The queue is bounded and jobs run for seconds to minutes, so "ask again
// in a second" is an honest floor without tracking per-job ETAs; clients
// layer their own exponential backoff on top.
const retryAfterSeconds = 1

// submitError maps admission failures to their status codes.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusTooManyRequests, QueueFullError{
			Error:         err.Error(),
			ErrorKind:     ErrKindSaturated,
			Queued:        len(s.queue),
			QueueCapacity: s.cfg.QueueDepth,
		})
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, ErrKindUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, ErrKindInternal, err)
	}
}

// maxBodyBytes bounds a POSTed spec. Replay, sweep, trace and age specs
// are a few hundred bytes; a body past this is not a spec.
const maxBodyBytes = 1 << 20

// decodeStrict rejects unknown fields, so a typo'd option is a 400 instead
// of a silently defaulted replay, and stops reading a body past
// maxBodyBytes.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// submitted is the 202 response body for accepted jobs.
type submitted struct {
	ID    string `json:"id"`
	State string `json:"state"`
	URL   string `json:"url"`
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var spec cliutil.ReplaySpec
	if err := decodeStrict(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	if err := spec.Validate(s.apps); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	s.submit(w, r, "replay", &spec.DeviceSpec, spec.FromDevice, spec.SetDeviceSource,
		func(ctx context.Context, reg *telemetry.Registry, tc *telemetry.Tracer) (any, error) {
			return spec.Run(ctx, s.cfg.JobWorkers, reg, tc)
		})
}

// submit is the tail every job endpoint shares: resolve the job's device
// (its backend, or the from_device snapshot, attached through setSource),
// queue run, and answer 202.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, dev *cliutil.DeviceSpec,
	fromDevice string, setSource func(cliutil.DeviceSource), run jobFunc) {
	backend, err := dev.Backend()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	device := string(backend)
	if fromDevice != "" {
		meta, ok := s.resolveFromDevice(w, fromDevice)
		if !ok {
			return
		}
		setSource(s.cfg.DeviceStore)
		device = string(meta.Backend)
	}
	j, err := s.enqueue(r.Context(), kind, device, fromDevice, run)
	if err != nil {
		s.submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitted{ID: j.id, State: JobQueued, URL: "/v1/jobs/" + j.id})
}

// SweepOutput is one named sweep's rendered tables inside a sweep job's
// result. It is the coordinator-shared cliutil.SweepResult under the
// server's historical name; the wire form is unchanged.
type SweepOutput = cliutil.SweepResult

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec cliutil.SweepSpec
	if err := decodeStrict(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	// The job body is the same SweepSpec.Run the coordinator's local
	// fallback calls, so a shard's result is identical either way.
	s.submit(w, r, "sweep", &spec.DeviceSpec, spec.FromDevice, spec.SetDeviceSource,
		func(ctx context.Context, reg *telemetry.Registry, tc *telemetry.Tracer) (any, error) {
			return spec.Run(ctx, s.cfg.JobWorkers, reg, tc)
		})
}

// TraceRequest asks for one generated trace, streamed back in the chosen
// codec. Generation is synchronous: the trace streams out as it is
// encoded, so the response holds no materialized copy (except bioz, whose
// header needs the record count up front).
type TraceRequest struct {
	App    string `json:"app"`
	Seed   uint64 `json:"seed,omitempty"`
	Format string `json:"format,omitempty"` // text, bio1 (default), or bioz
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrKindUnavailable, errDraining)
		return
	}
	var req TraceRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, err)
		return
	}
	if req.App == "" {
		writeError(w, http.StatusBadRequest, ErrKindValidation, errors.New("no application named; set app"))
		return
	}
	p := s.apps.Lookup(req.App)
	if p == nil {
		writeError(w, http.StatusBadRequest, ErrKindValidation, fmt.Errorf("unknown application %q", req.App))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = workload.DefaultSeed
	}
	// The request's context cancels generation between records when the
	// client goes away mid-download.
	st := trace.WithContext(r.Context(), p.Stream(seed))
	switch req.Format {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.WriteTextStream(w, st) //nolint:errcheck // body is streaming; too late for a status
	case "", "bio1":
		w.Header().Set("Content-Type", "application/octet-stream")
		trace.WriteBinaryStream(w, st) //nolint:errcheck
	case "bioz":
		w.Header().Set("Content-Type", "application/octet-stream")
		trace.WriteCompressed(w, p.Generate(seed)) //nolint:errcheck
	default:
		writeError(w, http.StatusBadRequest, ErrKindValidation, fmt.Errorf("unknown format %q (text, bio1, bioz)", req.Format))
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snap := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		snap = append(snap, j)
	}
	s.mu.Unlock()
	// Submission order, not lexical: "j10" must follow "j9", not "j1".
	sort.Slice(snap, func(i, k int) bool { return snap[i].seq < snap[k].seq })
	list := make([]JobStatus, 0, len(snap))
	for _, j := range snap {
		list = append(list, j.status())
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) lookup(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleDelete cancels a job. Queued jobs terminate immediately; running
// jobs get their context canceled and abort between replay events, so the
// transition is prompt even mid-sweep. Terminal jobs are left untouched
// (the DELETE is idempotent).
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, ErrKindNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.canceled = true
		j.state = JobCanceled
		j.errKind = ErrKindCanceled
		j.finished = time.Now()
		j.mu.Unlock()
		close(j.done)
		s.canceledC.Inc()
		s.retire(j)
		s.log.Info("job canceled", "job", j.id, "kind", j.kind, "req", j.reqID,
			"reason", "delete")
	case JobRunning:
		j.canceled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, j.status())
}

// Health is the /healthz body: liveness plus the queue/worker state a
// load balancer or operator needs at a glance.
type Health struct {
	Status string `json:"status"` // ok or draining
	// Queued/QueueCapacity describe the bounded admission queue; Workers
	// is the fixed executor pool size; Running is jobs executing now.
	Queued        int   `json:"queued"`
	QueueCapacity int   `json:"queue_capacity"`
	Workers       int   `json:"workers"`
	Running       int64 `json:"running"`
	// Jobs counts every job the result store still knows, States breaks
	// them down by lifecycle state.
	Jobs   int            `json:"jobs"`
	States map[string]int `json:"states"`
	// UptimeSec is seconds since the worker pool started.
	UptimeSec float64 `json:"uptime_sec"`
}

// handleHealth distinguishes liveness from readiness: a live but draining
// server answers 503 with {"status":"draining"}, so load balancers stop
// routing new work to it while clients polling existing jobs still get
// JSON (the process stays up until the drain completes).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	states := map[string]int{}
	s.mu.Lock()
	known := len(s.jobs)
	for _, j := range s.jobs {
		j.mu.Lock()
		states[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, code, Health{
		Status:        status,
		Queued:        len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		Running:       s.running.Value(),
		Jobs:          known,
		States:        states,
		UptimeSec:     time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.WritePrometheus(w) //nolint:errcheck // streaming body
}
