// Quickstart: generate a smartphone application's block-level I/O trace,
// replay it on the paper's hybrid-page-size (HPS) eMMC, and compare the
// mean response time against the conventional pure-4KB device.
package main

import (
	"context"
	"fmt"
	"log"

	"emmcio"
)

func main() {
	// 1. Synthesize the Twitter session of Table II (deterministic:
	//    the same seed always yields the same trace).
	tr := emmcio.GenerateTrace(emmcio.Twitter, emmcio.DefaultSeed)
	fmt.Printf("Generated %q: %d requests, %.1f MB moved, %.1f%% writes\n",
		tr.Name, len(tr.Reqs), float64(tr.TotalBytes())/1e6,
		100*float64(tr.WriteCount())/float64(len(tr.Reqs)))

	// 2. Replay it on the conventional 4 KB-page device and on HPS
	//    (fresh 32 GB devices, the §V-B setup).
	//    Replay reads the trace and leaves it untouched.
	replay := func(s emmcio.Scheme) emmcio.Metrics {
		dev, err := emmcio.NewDevice(s, emmcio.CaseStudyOptions())
		if err != nil {
			log.Fatal(err)
		}
		m, err := emmcio.Replay(context.Background(), dev, s, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	m4, mH := replay(emmcio.Scheme4PS), replay(emmcio.SchemeHPS)

	// 3. Compare (Fig. 8's metric).
	fmt.Printf("4PS mean response time: %.2f ms\n", m4.MeanResponseNs/1e6)
	fmt.Printf("HPS mean response time: %.2f ms (%.1f%% lower)\n",
		mH.MeanResponseNs/1e6, 100*(1-mH.MeanResponseNs/m4.MeanResponseNs))
	fmt.Printf("HPS space utilization:  %.1f%% (4PS-equal, by construction)\n",
		mH.SpaceUtilization*100)
}
