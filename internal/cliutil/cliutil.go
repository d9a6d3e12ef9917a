// Package cliutil holds the option structs, flag bindings, and error
// helpers shared by the CLIs (emmcsim, experiments) and the emmcd server's
// JSON spec decoder. A flag and its JSON field are two views of the same
// struct field here, so they cannot drift.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"emmcio/internal/faults"
	"emmcio/internal/telemetry"
)

// FoldError renders err as a single line. Replay errors can be multi-line
// aggregates (errors.Join across sweep jobs); the first line names the
// failure and the rest is noise at the CLI, so it is folded into a count.
func FoldError(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = fmt.Sprintf("%s (+%d more lines)", msg[:i], strings.Count(msg[i:], "\n"))
	}
	return msg
}

// Fatal prints a one-line "tool: diagnosis" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, FoldError(err))
	os.Exit(1)
}

// Observability is the shared telemetry-export flag set: -metrics, -trace,
// -trace-buffer, and the -j worker width every sweep-running command takes.
type Observability struct {
	MetricsPath string
	TracePath   string
	TraceBuffer int
	Workers     int

	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

// Bind registers the shared flags on fs.
func (o *Observability) Bind(fs *flag.FlagSet) {
	fs.StringVar(&o.MetricsPath, "metrics", "", "write Prometheus text-format metrics here")
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace_event JSON (Perfetto-loadable) here")
	fs.IntVar(&o.TraceBuffer, "trace-buffer", telemetry.DefaultTracerCapacity, "tracer ring-buffer capacity in events")
	fs.IntVar(&o.Workers, "j", 0, "worker pool width (0 = GOMAXPROCS); results are identical at any width")
}

// Registry returns the metrics registry, created on first call when
// -metrics was passed; nil otherwise (observability off unless exported).
func (o *Observability) Registry() *telemetry.Registry {
	if o.MetricsPath != "" && o.reg == nil {
		o.reg = telemetry.NewRegistry()
	}
	return o.reg
}

// Tracer returns the span tracer, created on first call when -trace was
// passed; nil otherwise.
func (o *Observability) Tracer() *telemetry.Tracer {
	if o.TracePath != "" && o.tracer == nil {
		cap := o.TraceBuffer
		if cap <= 0 {
			cap = telemetry.DefaultTracerCapacity
		}
		o.tracer = telemetry.NewTracer(cap)
	}
	return o.tracer
}

// Flush writes the requested export files (noting each on stderr) and the
// human-readable telemetry summary to out. It is a no-op when neither
// export flag was passed.
func (o *Observability) Flush(out io.Writer) error {
	if o.MetricsPath != "" {
		if err := WriteFile(o.MetricsPath, o.Registry().WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", o.MetricsPath)
	}
	if o.TracePath != "" {
		if err := WriteFile(o.TracePath, o.Tracer().WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chrome trace written to %s (open in ui.perfetto.dev)\n", o.TracePath)
	}
	if o.reg != nil || o.tracer != nil {
		return telemetry.WriteSummary(out, o.reg, o.tracer)
	}
	return nil
}

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NewLogger builds the stderr slog handler a long-running command shares
// (-log-level, -log-json).
func NewLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// FaultConfig builds and validates a fault-injection config from a rate,
// a seed, and whether the seed was set explicitly. It is the one
// validation path behind both the CLI flags and the server's JSON specs.
func FaultConfig(rate float64, seed uint64, seedSet bool) (*faults.Config, error) {
	if rate == 0 {
		if seedSet {
			return nil, fmt.Errorf("fault seed set but fault injection is off; pass a fault rate > 0")
		}
		return nil, nil
	}
	if seed == 0 {
		seed = 1
	}
	cfg := &faults.Config{Seed: seed, Rate: rate}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
