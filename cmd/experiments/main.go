// Command experiments regenerates the paper's tables and figures. Each
// result is a named study from the one list in internal/experiments, the
// same list the emmcd server and the emmcc coordinator run:
//
//	experiments                    # every study except the seed ensemble
//	experiments -exp a,b           # the named studies, in list order
//	experiments -exp a -csv        # CSV instead of aligned text
//	experiments -exp a -svg figs   # also write the studies' figures as SVG
//	experiments -j 1               # serial replays (same results, slower)
//
// -h lists the study names. Every sweep runs on a shared bounded worker
// pool (-j, default GOMAXPROCS); results are bit-identical at any width.
// A failed reproduction check makes the run exit 1 after its table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"emmcio/internal/cliutil"
	"emmcio/internal/experiments"
	"emmcio/internal/workload"
)

func main() {
	// The study, seed, worker, fault and device flags fill the same
	// SweepSpec an emmcd sweep job decodes, so both build their env alike.
	spec := cliutil.SweepSpec{Sweeps: []string{experiments.DefaultStudy}}
	flag.Var(cliutil.CSVList{Dst: &spec.Sweeps}, "exp",
		"comma-separated studies to run: "+strings.Join(experiments.StudyNames(), ", "))
	flag.Uint64Var(&spec.Seed, "seed", workload.DefaultSeed, "workload generation seed")
	flag.Float64Var(&spec.Faults, "faults", 0, "fault-injection rate multiplier (0 = perfect hardware)")
	flag.Uint64Var(&spec.FaultSeed, "fault-seed", 0, "fault-injection decision seed (requires -faults > 0; 0 = unset)")
	spec.DeviceSpec.BindFlags(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	md := flag.Bool("md", false, "emit Markdown tables instead of aligned text")
	svgDir := flag.String("svg", "", "also write the figures as SVG files into this directory")
	var obs cliutil.Observability
	obs.Bind(flag.CommandLine)
	showVersion := cliutil.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		fmt.Println(cliutil.VersionLine("experiments"))
		return
	}

	spec.Workers = obs.Workers
	env, err := spec.Env(context.Background())
	if err != nil {
		fatal(err)
	}
	selected, _ := experiments.Select(spec.Sweeps) // Env validated the names
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fatal(err)
		}
	}
	env.Telemetry = obs.Registry()
	env.Tracer = obs.Tracer()
	out := os.Stdout

	emit := func(o experiments.Output) {
		var err error
		switch {
		case *csv:
			fmt.Fprintf(out, "# %s\n", o.Table.Title)
			err = o.Table.WriteCSV(out)
		case *md:
			err = o.Table.WriteMarkdown(out)
		default:
			err = o.Table.WriteText(out)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
		if o.SVG != nil && *svgDir != "" {
			path := filepath.Join(*svgDir, o.SVGName)
			if err := cliutil.WriteFile(path, o.SVG); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if o.Note != "" {
			fmt.Fprintf(out, "%s\n\n", o.Note)
		}
	}

	failed := false
	for _, s := range selected {
		outs, err := s.Run(env, nil)
		if err != nil && !errors.Is(err, experiments.ErrValidationFailed) {
			fatal(err)
		}
		for _, o := range outs {
			emit(o)
		}
		failed = failed || err != nil
	}
	if err := obs.Flush(out); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) { cliutil.Fatal("experiments", err) }
