// Command emmcd serves the repository's replay and experiment machinery as
// a long-running HTTP/JSON job service:
//
//	emmcd -addr :8080
//	curl -d '{"app":"Twitter","scheme":"HPS"}' localhost:8080/v1/replays
//	curl localhost:8080/v1/jobs/j1
//	curl localhost:8080/v1/jobs/j1/metrics   # that job's own Prometheus text
//	curl localhost:8080/v1/jobs/j1/trace     # that job's Chrome-trace JSON
//	curl -d '{"sweeps":["casestudy","cq"]}'   localhost:8080/v1/sweeps
//	curl -d '{"app":"Movie","format":"text"}' localhost:8080/v1/traces
//	curl localhost:8080/metrics
//
// With -device-store, the /v1/devices surface archives pre-aged device
// snapshots: POST a replay-shaped age spec (or upload sealed bytes) once,
// then submit replays/sweeps with "from_device" to fork the worn device
// instead of re-aging it. See docs/SNAPSHOTS.md.
//
// Replay and sweep submissions are asynchronous jobs on a bounded queue
// (full queue = 429) executed by a fixed worker pool; results are
// bit-identical to the equivalent emmcsim/experiments invocation. A sweep
// names studies from the same list `experiments -exp` selects from. Every
// job observes into its own telemetry registry and span tracer, queryable
// per job; the server-wide /metrics carries the merged fleet totals.
// SIGINT/SIGTERM stops admissions (healthz flips to 503 draining), cancels
// queued jobs, and drains in-flight ones before exiting. See
// docs/SERVER.md for the API reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/devstore"
	"emmcio/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	queue := flag.Int("queue", 64, "bounded pending-job queue depth (full = 429)")
	jobs := flag.Int("jobs", 2, "jobs executing concurrently")
	workers := flag.Int("j", 0, "per-job sweep pool width (0 = GOMAXPROCS)")
	results := flag.Int("results", 64, "terminal jobs kept queryable before eviction")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job deadline (negative = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight jobs before they are canceled")
	traceBuffer := flag.Int("trace-buffer", 0, "per-job span-tracer ring capacity in events (0 = 4096; negative disables per-job traces)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	deviceStore := flag.String("device-store", "", "directory backing the /v1/devices snapshot store (empty = surface disabled)")
	deviceStoreMaxMB := flag.Int64("device-store-max-mb", 0, "device store size cap in MB, LRU-evicted (0 = unlimited)")
	deviceStoreMax := flag.Int("device-store-max", 0, "device store entry cap, LRU-evicted (0 = unlimited)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error (debug adds one line per HTTP request)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of key=value text")
	showVersion := cliutil.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println(cliutil.VersionLine("emmcd"))
		return
	}

	logger, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fatal(err)
	}

	var store *devstore.Store
	if *deviceStore != "" {
		store, err = devstore.Open(*deviceStore, devstore.Options{
			MaxBytes:   *deviceStoreMaxMB << 20,
			MaxEntries: *deviceStoreMax,
		})
		if err != nil {
			fatal(err)
		}
		entries, bytes := store.Stats()
		logger.Info("device store open", "dir", store.Dir(), "devices", entries, "bytes", bytes)
	}

	svc := server.New(server.Config{
		QueueDepth:  *queue,
		Workers:     *jobs,
		JobWorkers:  *workers,
		ResultCap:   *results,
		JobTimeout:  *jobTimeout,
		JobTraceCap: *traceBuffer,
		Logger:      logger,
		DeviceStore: store,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	// The pprof mux is opt-in and separate from the API listener, so the
	// profiling surface is never exposed on the service address by
	// accident; bind it to localhost in production.
	if *pprofAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("signal received, draining", "signal", sig.String(), "grace", *drainTimeout)
	case err := <-errc:
		// Listener died on its own (port taken, socket error): nothing to
		// drain that matters, report and exit non-zero.
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop admissions and drain jobs first, then close the listener: a
	// client polling a draining job keeps getting status until the end.
	if err := svc.Shutdown(ctx); err != nil {
		logger.Warn("drain incomplete", "error", err)
	}
	// The HTTP listener gets its own grace period: job draining may have
	// exhausted ctx above, and an expired context would abort in-flight
	// status responses instead of letting them finish.
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "error", err)
	}
	logger.Info("bye")
}

func fatal(err error) { cliutil.Fatal("emmcd", err) }
