// gctuning demonstrates Implication 2: smartphone inter-arrival gaps are
// long enough to hide garbage collection. It replays two back-to-back
// sessions of an application on a GC-pressured device under the SSD-style
// foreground policy and under the idle-gap policy, and compares stalls.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"emmcio"
)

func main() {
	app := flag.String("app", emmcio.Twitter, "application workload")
	seed := flag.Uint64("seed", emmcio.DefaultSeed, "generation seed")
	flag.Parse()

	base := emmcio.GenerateTrace(*app, *seed)
	// Two sessions back to back: the second overwrites the first session's
	// pages, creating the stale data GC exists to reclaim.
	tr := base.Clone()
	shift := base.Duration() + 1_000_000_000
	second := base.Clone()
	for i := range second.Reqs {
		second.Reqs[i].Arrival += shift
	}
	tr.Reqs = append(tr.Reqs, second.Reqs...)

	fmt.Printf("Workload: 2 sessions of %s (%d requests) on a GC-pressured device\n\n",
		*app, len(tr.Reqs))
	fmt.Printf("%-12s %10s %12s %12s %12s\n", "GC policy", "MRT(ms)", "stalls(ms)", "hidden(ms)", "WA")
	for _, policy := range []emmcio.GCPolicy{emmcio.GCForeground, emmcio.GCIdle} {
		opt := emmcio.Options{
			GCPolicy: policy,
			// Shrink the device so two sessions actually exhaust free
			// blocks: 128 blocks x 64 pages per plane (256 MB total).
			ScaleBlocks: 8,
			ScalePages:  16,
		}
		dev, err := emmcio.NewDevice(emmcio.Scheme4PS, opt)
		if err != nil {
			log.Fatal(err)
		}
		m, err := emmcio.Replay(context.Background(), dev, emmcio.Scheme4PS, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
		if err != nil {
			log.Fatal(err)
		}
		name := "foreground"
		if policy == emmcio.GCIdle {
			name = "idle-gap"
		}
		fmt.Printf("%-12s %10.3f %12.1f %12.1f %12.3f\n",
			name, m.MeanResponseNs/1e6,
			float64(m.GCStallNs)/1e6, float64(m.IdleGCNs)/1e6,
			m.WriteAmplification)
	}
	fmt.Println("\nThe idle policy runs the same collections inside request")
	fmt.Println("inter-arrival gaps (Characteristic 6), so requests stop paying")
	fmt.Println("for them — the FTL redesign Implication 2 argues for.")
}
