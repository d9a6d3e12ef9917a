// Package coord implements the fault-tolerant distributed sweep fabric:
// one coordinator fans an ordinary cliutil.SweepSpec out — as serializable
// shards — to a fleet of emmcd workers over the existing POST /v1/sweeps +
// GET /v1/jobs/{id} API, and merges the shard results deterministically in
// plan order, so the sharded sweep is byte-identical to running the same
// studies in one process (cliutil.SweepSpec.Run).
//
// Robustness model: workers are health-checked (periodic /healthz probes;
// draining/503 workers leave rotation), every shard attempt runs under its
// own deadline and HTTP client timeouts, failures retry with capped
// exponential backoff plus jitter (honoring 429 Retry-After), a failed or
// timed-out shard re-routes to a different healthy worker under a bounded
// attempt budget, repeatedly failing workers are circuit-broken, and when
// no workers remain the coordinator degrades to in-process execution
// through the same SweepSpec.Run path the workers use — so partial failure
// costs wall clock, never results. Canceling the coordinator's context
// propagates: in-flight worker jobs are DELETEd.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/rng"
	"emmcio/internal/server"
	"emmcio/internal/telemetry"
)

// Config sizes the coordinator's fleet and its failure policy. The zero
// value gets sensible defaults from New; an empty Workers list means every
// shard runs locally (the degenerate but valid single-machine fabric).
type Config struct {
	// Workers lists emmcd base URLs ("http://host:8080").
	Workers []string
	// TracesPerShard bounds how many traces a per-trace sweep shard carries
	// (default 1, the finest re-routable grain).
	TracesPerShard int
	// MaxInflight bounds shards dispatched concurrently (default
	// 2×len(Workers), min 1): enough to keep every worker's job queue fed
	// without flooding a small fleet into constant 429s.
	MaxInflight int
	// MaxAttempts is the per-shard attempt budget: full submit→poll cycles
	// before the shard degrades to local execution or fails (default 3).
	MaxAttempts int
	// ShardTimeout is the per-attempt deadline covering submission,
	// backpressure waits, and polling (default 5m).
	ShardTimeout time.Duration
	// HTTPTimeout is the per-request client timeout (default 10s).
	HTTPTimeout time.Duration
	// PollInterval is the job-status polling period (default 200ms).
	PollInterval time.Duration
	// PollFailures is how many consecutive poll errors mean the worker is
	// gone and the shard re-routes (default 3).
	PollFailures int
	// HealthInterval is the background probe period (default 2s).
	HealthInterval time.Duration
	// BackoffBase/BackoffMax bound the capped exponential retry backoff
	// (defaults 100ms and 5s); full jitter is applied on top, and a 429's
	// Retry-After is honored as the floor.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerFailures consecutive shard failures trip a worker's circuit
	// breaker for BreakerCooldown (defaults 3 and 10s).
	BreakerFailures int
	BreakerCooldown time.Duration
	// DisableLocal forbids the degrade-to-local fallback: a shard that
	// exhausts its attempts (or finds no healthy worker) fails the sweep
	// instead of running in process. Off by default — availability first.
	DisableLocal bool
	// LocalWorkers is the in-process worker width for degraded shards
	// (0 = GOMAXPROCS).
	LocalWorkers int
	// JitterSeed seeds the deterministic backoff jitter stream (0 = 1).
	// Jitter affects timing only, never results.
	JitterSeed uint64
	// Telemetry receives the coordinator's coord_* counters (nil = a fresh
	// private registry; read it back via Telemetry()).
	Telemetry *telemetry.Registry
	// Logger receives retry/re-route/degrade lifecycle logs (nil = silent).
	Logger *slog.Logger
}

// Coordinator fans sharded sweeps out to a worker fleet. Create with New;
// each Run is independent and concurrent-safe.
type Coordinator struct {
	cfg  Config
	pool *pool
	tel  *telemetry.Registry
	log  *slog.Logger

	shardsPlanned   *telemetry.Counter
	shardsCompleted *telemetry.Counter
	attempts        *telemetry.Counter
	retries         *telemetry.Counter
	reroutes        *telemetry.Counter
	backpressure    *telemetry.Counter
	workerFailures  *telemetry.Counter
	breakerTrips    *telemetry.Counter
	localRuns       *telemetry.Counter
	remoteCancels   *telemetry.Counter
	probeFailures   *telemetry.Counter
	devicePushes    *telemetry.Counter
	workersHealthy  *telemetry.Gauge

	rngMu    sync.Mutex
	rngState uint64
}

// New builds a coordinator over the configured fleet.
func New(cfg Config) *Coordinator {
	if cfg.TracesPerShard <= 0 {
		cfg.TracesPerShard = 1
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * len(cfg.Workers)
		if cfg.MaxInflight < 1 {
			cfg.MaxInflight = 1
		}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 5 * time.Minute
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 10 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.PollFailures <= 0 {
		cfg.PollFailures = 3
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	c := &Coordinator{
		cfg:      cfg,
		pool:     newPool(cfg.Workers, cfg.HTTPTimeout),
		tel:      cfg.Telemetry,
		log:      cfg.Logger,
		rngState: cfg.JitterSeed,
	}
	c.shardsPlanned = c.tel.Counter("coord_shards_planned_total")
	c.shardsCompleted = c.tel.Counter("coord_shards_completed_total")
	c.attempts = c.tel.Counter("coord_shard_attempts_total")
	c.retries = c.tel.Counter("coord_shard_retries_total")
	c.reroutes = c.tel.Counter("coord_shard_reroutes_total")
	c.backpressure = c.tel.Counter("coord_backpressure_429_total")
	c.workerFailures = c.tel.Counter("coord_worker_failures_total")
	c.breakerTrips = c.tel.Counter("coord_breaker_trips_total")
	c.localRuns = c.tel.Counter("coord_local_runs_total")
	c.remoteCancels = c.tel.Counter("coord_remote_cancels_total")
	c.probeFailures = c.tel.Counter("coord_health_probe_failures_total")
	c.devicePushes = c.tel.Counter("coord_device_pushes_total")
	c.workersHealthy = c.tel.Gauge("coord_workers_healthy")
	return c
}

// Telemetry returns the registry carrying the coordinator's coord_*
// counters (retries, re-routes, breaker trips, local fallbacks, …).
func (c *Coordinator) Telemetry() *telemetry.Registry { return c.tel }

// Run shards spec, executes the shards across the fleet, and merges the
// results in plan order. The returned []cliutil.SweepResult marshals to
// exactly the bytes a single-process SweepSpec.Run would produce; only
// wall clock depends on the fleet. Canceling ctx aborts the sweep and
// DELETEs in-flight worker jobs.
func (c *Coordinator) Run(ctx context.Context, spec cliutil.SweepSpec) ([]cliutil.SweepResult, error) {
	shards, err := cliutil.ShardSweep(spec, c.cfg.TracesPerShard)
	if err != nil {
		return nil, err
	}
	c.shardsPlanned.Add(int64(len(shards)))

	// A from_device sweep forks an archived snapshot the workers may not
	// hold. Materialize the sealed bytes once, up front — an unknown id or
	// missing local store fails the whole run here, before any shard is
	// dispatched — and lazily push them to each worker on its first shard.
	var push *devicePush
	if spec.FromDevice != "" {
		sealed, err := spec.DeviceSnapshot()
		if err != nil {
			return nil, fmt.Errorf("coord: %w", err)
		}
		push = &devicePush{id: spec.FromDevice, sealed: sealed, pushed: map[string]bool{}}
		c.log.Info("sweep forks archived device", "device", spec.FromDevice,
			"snapshot_bytes", len(sealed))
	}

	// One synchronous probe round before dispatch, so the first picks see
	// real health instead of the everyone-unhealthy boot state; then the
	// background prober keeps verdicts fresh for the sweep's duration.
	c.probeRound(ctx)
	proberDone := make(chan struct{})
	proberCtx, stopProber := context.WithCancel(ctx)
	go func() {
		defer close(proberDone)
		t := time.NewTicker(c.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-proberCtx.Done():
				return
			case <-t.C:
				c.probeRound(proberCtx)
			}
		}
	}()
	defer func() { stopProber(); <-proberDone }()

	c.log.Info("sweep sharded", "shards", len(shards), "workers", len(c.cfg.Workers),
		"healthy", c.pool.healthyCount(time.Now()))

	// Fan out with bounded in-flight shards. The first fatal error cancels
	// the rest (their in-flight worker jobs are DELETEd on the way down);
	// results land in shard-ID slots so the merge is plan-ordered no
	// matter the completion order.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	results := make([][]cliutil.SweepResult, len(shards))
	sem := make(chan struct{}, c.cfg.MaxInflight)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-runCtx.Done():
				return
			}
			res, err := c.runShard(runCtx, shards[i], push)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancelRun()
				return
			}
			results[i] = res
			c.shardsCompleted.Inc()
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return cliutil.MergeShardResults(shards, results)
}

// probeRound probes the whole fleet and refreshes the health gauge.
func (c *Coordinator) probeRound(ctx context.Context) {
	if len(c.pool.workers) == 0 {
		return
	}
	failed := c.pool.probeAll(ctx)
	if failed > 0 {
		c.probeFailures.Add(int64(failed))
	}
	c.workersHealthy.Set(int64(c.pool.healthyCount(time.Now())))
}

// devicePush is a run's snapshot pre-push state for a from_device sweep:
// the sealed bytes fetched once at Run, and which workers already hold
// them. Shards share it, so a fleet-wide sweep uploads the snapshot to
// each worker exactly once no matter how many shards land there.
type devicePush struct {
	id     string
	sealed []byte

	mu     sync.Mutex
	pushed map[string]bool
}

// ensureDevice makes sure w's store holds the forked snapshot before a
// shard referencing it is submitted. The worker derives the id from the
// uploaded content with the same hash the local store used, so a mismatch
// means the bytes were mangled in transit — never retryable.
func (c *Coordinator) ensureDevice(ctx context.Context, w *workerState, push *devicePush) error {
	// The mutex spans the upload, not just the map: concurrent shards
	// racing to the same fresh worker would otherwise both see it
	// unpushed and both upload the snapshot. Serializing pushes across
	// workers too is fine — each worker is pushed at most once, so total
	// time under the lock is bounded by fleet size, not shard count.
	push.mu.Lock()
	defer push.mu.Unlock()
	if push.pushed[w.name] {
		return nil
	}
	id, err := w.cli.ImportDevice(ctx, push.sealed, "")
	if err != nil {
		// The worker archives before it answers, so an import whose
		// response was lost or late (a client timeout) may still have
		// landed. If the worker holds the snapshot, the push happened.
		if _, derr := w.cli.Device(ctx, push.id); derr != nil {
			return fmt.Errorf("pushing device %s to %s: %w", push.id, w.name, err)
		}
		id = push.id
	}
	if id != push.id {
		return fmt.Errorf("worker %s archived pushed snapshot as %s, want %s", w.name, id, push.id)
	}
	push.pushed[w.name] = true
	c.devicePushes.Inc()
	c.log.Info("device pushed", "device", push.id, "worker", w.name,
		"bytes", len(push.sealed))
	return nil
}

// runShard executes one shard to completion: remote attempts with
// retry/backoff/re-route under the attempt budget, then — unless disabled
// — local degradation through the identical SweepSpec.Run path.
func (c *Coordinator) runShard(ctx context.Context, sh cliutil.SweepShard, push *devicePush) ([]cliutil.SweepResult, error) {
	var lastErr error
	var lastWorker *workerState
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pool.pick(time.Now())
		if w == nil {
			// Nobody to route to; stop burning attempts and degrade now.
			break
		}
		if attempt > 1 {
			c.retries.Inc()
			if w != lastWorker {
				c.reroutes.Inc()
				c.log.Warn("re-routing shard", "shard", sh.ID, "sweep", sh.Sweep,
					"attempt", attempt, "worker", w.name)
			}
		}
		lastWorker = w
		c.attempts.Inc()
		res, retryable, err := c.attempt(ctx, w, sh, push)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !retryable {
			return nil, fmt.Errorf("coord: shard %d (%s) failed on %s: %w", sh.ID, sh.Sweep, w.name, err)
		}
		lastErr = err
		c.markFailure(w)
		c.log.Warn("shard attempt failed", "shard", sh.ID, "sweep", sh.Sweep,
			"attempt", attempt, "worker", w.name, "error", err)
		if attempt < c.cfg.MaxAttempts {
			if !sleepCtx(ctx, c.backoff(attempt, 0)) {
				return nil, ctx.Err()
			}
		}
	}
	if c.cfg.DisableLocal {
		if lastErr != nil {
			return nil, fmt.Errorf("coord: shard %d (%s): attempt budget exhausted and local execution disabled: %w",
				sh.ID, sh.Sweep, lastErr)
		}
		return nil, fmt.Errorf("coord: shard %d (%s): no healthy workers and local execution disabled", sh.ID, sh.Sweep)
	}
	// Degrade to local: the shard's spec runs in process through the same
	// SweepSpec.Run path the workers' job bodies use, so the result is
	// identical to a remote success — availability costs wall clock only.
	c.localRuns.Inc()
	c.log.Warn("degrading shard to local execution", "shard", sh.ID, "sweep", sh.Sweep,
		"last_error", errString(lastErr))
	spec := sh.Spec
	return spec.Run(ctx, c.cfg.LocalWorkers, nil, nil)
}

// attempt runs one submit→poll cycle of sh on w under the shard deadline.
// retryable classifies the failure: true means a different worker (or a
// later try) could succeed; false means the shard itself is defective
// (spec rejection, runtime failure — deterministic either way).
func (c *Coordinator) attempt(ctx context.Context, w *workerState, sh cliutil.SweepShard, push *devicePush) (res []cliutil.SweepResult, retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()

	if push != nil {
		if err := c.ensureDevice(actx, w, push); err != nil {
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			var se *StatusError
			if errors.As(err, &se) && !se.Retryable() {
				return nil, false, err
			}
			// A worker without a device store (503 unavailable), a full
			// store, or a network failure: another worker may do better,
			// and local degradation always can (the spec carries its own
			// snapshot source).
			return nil, true, err
		}
	}

	id, err := c.submit(actx, w, sh)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		var se *StatusError
		if errors.As(err, &se) && !se.Retryable() {
			return nil, false, err
		}
		// Connection errors, 5xx, saturation, attempt deadline: the worker
		// (or its queue) is the problem — try another.
		return nil, true, err
	}

	pollFails := 0
	for {
		if !sleepCtx(actx, c.cfg.PollInterval) {
			// Shard deadline or cancellation with a job in flight: tell the
			// worker to stop before we walk away.
			c.cancelRemote(w, id)
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			return nil, true, fmt.Errorf("shard deadline %s exceeded polling job %s", c.cfg.ShardTimeout, id)
		}
		st, err := w.cli.JobStatus(actx, id)
		if err != nil {
			pollFails++
			if pollFails >= c.cfg.PollFailures {
				// The worker vanished mid-job (crash, partition). Its job —
				// if the process still exists — is canceled best-effort; the
				// shard re-routes.
				c.cancelRemote(w, id)
				return nil, true, fmt.Errorf("lost contact polling job %s (%d consecutive errors): %w", id, pollFails, err)
			}
			continue
		}
		pollFails = 0
		switch st.State {
		case server.JobDone:
			if len(st.Result) > maxResultBytes {
				return nil, true, fmt.Errorf("job %s result is %d bytes, over the %d-byte bound", id, len(st.Result), maxResultBytes)
			}
			var out []cliutil.SweepResult
			if err := json.Unmarshal(st.Result, &out); err != nil {
				return nil, true, fmt.Errorf("decoding job %s result: %w", id, err)
			}
			w.ok()
			return out, false, nil
		case server.JobFailed:
			if st.ErrorKind == server.ErrKindDeadline {
				// The worker's own job deadline expired — a capacity
				// symptom, not a property of the shard.
				return nil, true, fmt.Errorf("job %s hit the worker deadline: %s", id, st.Error)
			}
			// Runtime failures are deterministic: the same spec fails the
			// same way everywhere, so retrying would only repeat it.
			return nil, false, fmt.Errorf("job %s failed (%s): %s", id, st.ErrorKind, st.Error)
		case server.JobCanceled:
			// Worker-side cancellation (drain, operator DELETE): the shard
			// is fine, run it elsewhere.
			return nil, true, fmt.Errorf("job %s canceled on the worker: %s", id, st.Error)
		}
	}
}

// submit POSTs the shard, absorbing 429 backpressure with capped
// exponential backoff that honors Retry-After as the floor. A worker that
// stays saturated past submit429Budget rejections hands the shard back
// for re-routing rather than being hammered further.
const submit429Budget = 3

func (c *Coordinator) submit(actx context.Context, w *workerState, sh cliutil.SweepShard) (string, error) {
	var rejected int
	for try := 0; ; try++ {
		id, err := c.post(actx, w, sh)
		if err == nil {
			return id, nil
		}
		var be *BackpressureError
		if !errors.As(err, &be) {
			return "", err
		}
		c.backpressure.Inc()
		if rejected++; rejected >= submit429Budget {
			return "", fmt.Errorf("worker saturated (%d consecutive 429s, queue %d/%d)",
				rejected, be.Queued, be.QueueCapacity)
		}
		if !sleepCtx(actx, c.backoff(try+1, be.After)) {
			return "", fmt.Errorf("attempt deadline during backpressure backoff: %w", actx.Err())
		}
	}
}

// post POSTs the shard once. The request runs detached from actx, bounded
// by HTTPTimeout: a cancellation landing while it is in flight would
// otherwise drop the response, and with it the id of a job the worker has
// already accepted, orphaning that job. If actx ended meanwhile, the
// accepted job is cancelled and actx's error returned.
func (c *Coordinator) post(actx context.Context, w *workerState, sh cliutil.SweepShard) (string, error) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(actx), c.cfg.HTTPTimeout)
	defer cancel()
	id, err := w.cli.SubmitSweep(ctx, sh.Spec)
	if err == nil && actx.Err() != nil {
		c.cancelRemote(w, id)
		return "", fmt.Errorf("attempt ended while submitting: %w", actx.Err())
	}
	return id, err
}

// cancelRemote best-effort DELETEs a job we are abandoning, under its own
// short context — the caller's may already be dead, and a dead context
// must not stop cancellation from propagating to the fleet.
func (c *Coordinator) cancelRemote(w *workerState, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HTTPTimeout)
	defer cancel()
	if err := w.cli.CancelJob(ctx, id); err != nil {
		c.log.Warn("remote cancel failed", "worker", w.name, "job", id, "error", err)
		return
	}
	c.remoteCancels.Inc()
}

// markFailure feeds a shard-level failure into the worker's breaker.
func (c *Coordinator) markFailure(w *workerState) {
	c.workerFailures.Inc()
	if w.fail(c.cfg.BreakerFailures, c.cfg.BreakerCooldown, time.Now()) {
		c.breakerTrips.Inc()
		c.log.Warn("circuit breaker tripped", "worker", w.name, "cooldown", c.cfg.BreakerCooldown)
	}
}

// backoff computes the capped exponential delay for the given attempt
// (1-based) with full jitter, floored at the server's Retry-After hint.
// The jitter stream is seeded (Config.JitterSeed), so tests are
// reproducible; jitter shifts timing only, never results.
func (c *Coordinator) backoff(attempt int, floor time.Duration) time.Duration {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	// Full jitter in [d/2, d): desynchronizes shard retries without ever
	// collapsing the delay to zero.
	c.rngMu.Lock()
	r := rng.SplitMix64(&c.rngState)
	c.rngMu.Unlock()
	d = d/2 + time.Duration(r%uint64(d/2+1))
	if d < floor {
		d = floor
	}
	return d
}

// sleepCtx sleeps d or until ctx is done; false means ctx won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// discardHandler is a no-op slog.Handler; coord stays silent unless the
// caller wires a logger.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
