// Command emmcsim replays a block-level trace on the simulated eMMC device
// under one or more Table V schemes and reports the §V metrics.
//
//	emmcsim -app Booting                  # built-in workload, all schemes
//	emmcsim -in twitter.trace -scheme HPS
//	emmcsim -app Twitter -gc idle -buffer 16
//	emmcsim -app Twitter -scheme HPS -metrics out.prom -trace out.json
//	emmcsim -app Twitter -json            # machine-readable metrics
//
// Each scheme job builds its own request stream — file traces are decoded
// incrementally (text, BIO1, BIOZ) and -o output is written as requests
// complete — so replay memory is O(in-flight), not O(trace length).
//
// The workload and device flags are two views of cliutil.ReplaySpec — the
// same struct the emmcd server decodes from JSON — so a flag and its JSON
// field cannot drift, and -json output is byte-comparable to a server
// replay job's results.
//
// Every scheme job runs ReplaySpec.Replay, the code emmcd's replay and age
// jobs run. -load path forks a sealed snapshot file the way -from-device id
// forks a -device-store entry: one concrete -scheme, no -device (the
// backend is sealed inside), -faults > 0 replaces the archived fault
// regime, and the replay resumes after the device's history. -save seals
// the replayed device.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"emmcio/internal/cliutil"
	"emmcio/internal/core"
	"emmcio/internal/devstore"
	"emmcio/internal/report"
	"emmcio/internal/runner"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

func main() {
	var spec cliutil.ReplaySpec
	spec.BindFlags(flag.CommandLine)
	var obs cliutil.Observability
	obs.Bind(flag.CommandLine)
	tracePath := flag.String("in", "", "trace file to replay (text or binary)")
	profilePath := flag.String("profile", "", "JSON workload profile to generate and replay")
	loadDev := flag.String("load", "", "fork the device from a sealed snapshot file, as -from-device forks a store entry (single scheme only)")
	saveDev := flag.String("save", "", "write the device's sealed snapshot after the replay (single scheme only; importable into a device store)")
	deviceStore := flag.String("device-store", "", "snapshot store directory backing -from-device")
	outTrace := flag.String("o", "", "write the replayed (timestamped) trace to this file (single scheme only; feed pairs to tracediff)")
	asJSON := flag.Bool("json", false, "emit per-scheme metrics as JSON instead of a table")
	showVersion := cliutil.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println(cliutil.VersionLine("emmcsim"))
		return
	}

	// -load forks a snapshot file exactly as -from-device forks a store
	// entry, so it is set before validation: the from_device rules (one
	// concrete scheme, no -device) and the fault regime apply to both.
	switch {
	case *loadDev != "" && spec.FromDevice != "":
		fatal(fmt.Errorf("-load and -from-device are mutually exclusive"))
	case *loadDev != "":
		spec.FromDevice = *loadDev
		spec.SetDeviceSource(snapshotFile{})
	case *deviceStore != "":
		store, err := devstore.Open(*deviceStore, devstore.Options{})
		if err != nil {
			fatal(err)
		}
		spec.SetDeviceSource(store)
	case spec.FromDevice != "":
		fatal(fmt.Errorf("-from-device %s requires -device-store (the archive holding the snapshot)", spec.FromDevice))
	}

	// Validate like the server does before any work starts. Only -app is
	// checked against the registry: -in and -profile supply their own
	// trace, and traceSource reports a missing or doubled source.
	validate := spec.ValidateReplay
	if spec.App != "" {
		validate = func() error { return spec.Validate(nil) }
	}
	if err := validate(); err != nil {
		fatal(err)
	}
	schemes, err := spec.Schemes()
	if err != nil {
		fatal(err)
	}
	name, source, err := traceSource(spec.App, *tracePath, *profilePath, spec.Seed)
	if err != nil {
		fatal(err)
	}
	if (*saveDev != "" || *outTrace != "" || obs.MetricsPath != "" || obs.TracePath != "") && len(schemes) != 1 {
		fatal(fmt.Errorf("-save/-o/-metrics/-trace require a single -scheme"))
	}

	// Observability is off unless an export was requested.
	reg := obs.Registry()
	tracer := obs.Tracer()

	// Each scheme replays as one job on the shared worker pool, pulling its
	// own private stream (streams are single-goroutine). The side-effectful
	// flags (-save/-o/-metrics/-trace) are restricted to a single scheme
	// above, so file writes inside the job cannot race.
	metrics, err := runner.MapContext(context.Background(), runner.New(obs.Workers).Observe(reg), "emmcsim", schemes,
		func(ctx context.Context, _ int, s core.Scheme) (core.Metrics, error) {
			st, done, err := source()
			if err != nil {
				return core.Metrics{}, err
			}
			defer done()
			// -o streams the timestamped trace out as requests complete
			// instead of materializing the replay.
			var sink func(trace.Request) error
			var finishOut func() error
			if *outTrace != "" {
				f, err := os.Create(*outTrace)
				if err != nil {
					return core.Metrics{}, err
				}
				enc, err := trace.NewTextEncoder(f, name)
				if err != nil {
					f.Close()
					return core.Metrics{}, err
				}
				sink = enc.Write
				finishOut = func() error {
					if err := enc.Close(); err != nil {
						f.Close()
						return err
					}
					return f.Close()
				}
			}
			dev, m, err := spec.Replay(ctx, s, st, core.ReplayOpts{Registry: reg, Tracer: tracer, Sink: sink})
			if err != nil {
				return core.Metrics{}, err
			}
			if finishOut != nil {
				if err := finishOut(); err != nil {
					return core.Metrics{}, err
				}
			}
			if *saveDev != "" {
				sealed, info, err := storage.Seal(dev)
				if err != nil {
					return core.Metrics{}, err
				}
				if err := os.WriteFile(*saveDev, sealed, 0o644); err != nil {
					return core.Metrics{}, err
				}
				fmt.Fprintf(os.Stderr, "sealed device snapshot written to %s (%s, device %s)\n",
					*saveDev, info.Backend, devstore.IDFromDigest(info.Digest))
			}
			return m, nil
		})
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		results := make([]cliutil.SchemeResult, len(schemes))
		for i, s := range schemes {
			results[i] = cliutil.SchemeResult{Scheme: s.String(), Metrics: metrics[i]}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
	} else {
		tab := report.NewTable(fmt.Sprintf("Replay of %s (%d requests)", name, metrics[0].Served),
			"Scheme", "MRT(ms)", "MeanServ(ms)", "NoWait%", "SpaceUtil", "WA", "GCStall(ms)", "IdleGC(ms)")
		for i, s := range schemes {
			m := metrics[i]
			tab.AddRow(s.String(),
				report.F(m.MeanResponseNs/1e6, 3),
				report.F(m.MeanServiceNs/1e6, 3),
				report.Pct(m.NoWaitRatio, 1),
				report.F(m.SpaceUtilization, 4),
				report.F(m.WriteAmplification, 3),
				report.F(float64(m.GCStallNs)/1e6, 1),
				report.F(float64(m.IdleGCNs)/1e6, 1))
		}
		if err := tab.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	// In -json mode stdout carries only the result array (so it stays
	// byte-comparable with a server job result); the summary moves aside.
	flushOut := io.Writer(os.Stdout)
	if *asJSON {
		flushOut = os.Stderr
	}
	if err := obs.Flush(flushOut); err != nil {
		fatal(err)
	}
}

// traceSource resolves the workload flags into a display name and a factory
// that opens a fresh stream per replay job. Generated workloads materialize
// lazily inside each job; file traces get a private decoder over their own
// file handle. The second return of the factory releases the job's handle.
func traceSource(app, path, profilePath string, seed uint64) (string, func() (trace.Stream, func() error, error), error) {
	noop := func() error { return nil }
	set := 0
	for _, v := range []string{app, path, profilePath} {
		if v != "" {
			set++
		}
	}
	if set > 1 {
		return "", nil, fmt.Errorf("pass exactly one of -app, -in, -profile")
	}
	switch {
	case profilePath != "":
		f, err := os.Open(profilePath)
		if err != nil {
			return "", nil, err
		}
		defer f.Close()
		p, err := workload.ReadProfileJSON(f)
		if err != nil {
			return "", nil, err
		}
		return p.Name, func() (trace.Stream, func() error, error) {
			return p.Stream(seed), noop, nil
		}, nil
	case app != "":
		p := workload.DefaultRegistry().Lookup(app)
		if p == nil {
			return "", nil, fmt.Errorf("unknown application %q", app)
		}
		return p.Name, func() (trace.Stream, func() error, error) {
			return p.Stream(seed), noop, nil
		}, nil
	case path != "":
		// Probe once for the header name so the report can be titled before
		// any replay runs; each job then opens its own decoder.
		name, err := probeName(path)
		if err != nil {
			return "", nil, err
		}
		return name, func() (trace.Stream, func() error, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			st, err := trace.NewDecoder(f)
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			return st, f.Close, nil
		}, nil
	default:
		return "", nil, fmt.Errorf("pass -app <name>, -in <file>, or -profile <file>")
	}
}

// probeName reads just the trace header for the report title.
func probeName(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	st, err := trace.NewDecoder(f)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if n := st.Name(); n != "" {
		return n, nil
	}
	return path, nil
}

// snapshotFile is the device source behind -load: the device id is the
// path of a sealed snapshot file.
type snapshotFile struct{}

func (snapshotFile) OpenDevice(path string) ([]byte, error) { return os.ReadFile(path) }

func fatal(err error) { cliutil.Fatal("emmcsim", err) }
