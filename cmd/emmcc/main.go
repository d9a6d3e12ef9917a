// Command emmcc is the sweep coordinator: it takes the same sweep spec the
// CLIs and emmcd accept, shards it across a fleet of emmcd workers, and
// merges the shard results into output byte-identical to a single-process
// run:
//
//	emmcd -addr :8081 & emmcd -addr :8082 & emmcd -addr :8083 &
//	emmcc -workers http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	      -sweeps casestudy
//
// Failed or stalled shards retry with capped exponential backoff and
// re-route to healthy workers; saturated workers (429) are backed off per
// their Retry-After; repeatedly failing workers are circuit-broken; and
// when no workers remain usable, shards degrade to in-process execution —
// so the sweep completes with the same bytes regardless of fleet health.
// SIGINT/SIGTERM cancels the sweep and DELETEs in-flight worker jobs. With
// no -workers at all, every shard runs locally. See docs/COORDINATOR.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/coord"
	"emmcio/internal/devstore"
)

func main() {
	var spec cliutil.SweepSpec
	spec.BindFlags(flag.CommandLine)

	var workerURLs []string
	flag.CommandLine.Var(cliutil.CSVList{Dst: &workerURLs}, "workers",
		"comma-separated emmcd worker base URLs (empty = run every shard locally)")
	tracesPerShard := flag.Int("traces-per-shard", 1, "traces per shard for per-trace sweeps (finer = better re-routing)")
	attempts := flag.Int("attempts", 3, "remote attempts per shard before degrading to local execution")
	shardTimeout := flag.Duration("shard-timeout", 5*time.Minute, "per-attempt shard deadline (submit + queue + run)")
	httpTimeout := flag.Duration("http-timeout", 10*time.Second, "per-request worker HTTP timeout")
	inflight := flag.Int("inflight", 0, "max shards in flight (0 = 2x worker count)")
	noLocal := flag.Bool("no-local", false, "fail instead of degrading exhausted shards to local execution")
	asJSON := flag.Bool("json", false, "emit the merged []SweepResult as JSON instead of aligned text")
	metricsPath := flag.String("metrics", "", "write the coordinator's Prometheus text-format metrics here")
	deviceStore := flag.String("device-store", "", "local snapshot store directory backing -from-device (pushed to workers on demand)")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn, or error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of key=value text")
	showVersion := cliutil.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println(cliutil.VersionLine("emmcc"))
		return
	}

	logger, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fatal(err)
	}

	// -from-device resolves against the local store; the coordinator pushes
	// the sealed snapshot to each worker before routing shards there, so
	// the fleet needs no shared filesystem.
	if *deviceStore != "" {
		store, err := devstore.Open(*deviceStore, devstore.Options{})
		if err != nil {
			fatal(err)
		}
		spec.SetDeviceSource(store)
	} else if spec.FromDevice != "" {
		fatal(fmt.Errorf("-from-device %s requires -device-store (the local archive holding the snapshot)", spec.FromDevice))
	}

	// SIGINT/SIGTERM cancels the run context; the coordinator propagates
	// that to the fleet by DELETEing every in-flight worker job on its way
	// out, so killing emmcc never leaves orphaned sweeps running remotely.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := coord.New(coord.Config{
		Workers:        workerURLs,
		TracesPerShard: *tracesPerShard,
		MaxAttempts:    *attempts,
		ShardTimeout:   *shardTimeout,
		HTTPTimeout:    *httpTimeout,
		MaxInflight:    *inflight,
		DisableLocal:   *noLocal,
		LocalWorkers:   spec.Workers,
		Logger:         logger,
	})
	results, err := c.Run(ctx, spec)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
	} else {
		for _, res := range results {
			for _, t := range res.Tables {
				if err := t.WriteText(os.Stdout); err != nil {
					fatal(err)
				}
				fmt.Println()
			}
		}
	}

	if *metricsPath != "" {
		if err := cliutil.WriteFile(*metricsPath, c.Telemetry().WritePrometheus); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsPath)
	}

	// One fabric-health line on stderr: how bumpy the ride was.
	stats := map[string]int64{}
	c.Telemetry().EachCounter(func(name string, v int64) { stats[name] = v })
	fmt.Fprintf(os.Stderr,
		"emmcc: %d/%d shards done (%d attempts, %d retries, %d re-routes, %d local, %d breaker trips)\n",
		stats["coord_shards_completed_total"], stats["coord_shards_planned_total"],
		stats["coord_shard_attempts_total"], stats["coord_shard_retries_total"],
		stats["coord_shard_reroutes_total"], stats["coord_local_runs_total"],
		stats["coord_breaker_trips_total"])
}

func fatal(err error) { cliutil.Fatal("emmcc", err) }
