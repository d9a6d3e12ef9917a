// customapp shows how to model an application the paper never traced:
// define a workload profile with your own calibration targets, generate its
// trace, characterize it like §III, and judge it on the §V device schemes.
// Here: a podcast app — long sessions, bursty 4 KB bookkeeping writes over
// a background of large sequential audio prefetches.
package main

import (
	"context"
	"fmt"
	"log"

	"emmcio"
)

func main() {
	podcast := &emmcio.Profile{
		Name:        "Podcast",
		DurationSec: 2400, // a 40-minute commute
		Requests:    4200,
		WriteFrac:   0.72, // bookkeeping + episode caching
		MeanReadKB:  48,   // audio prefetch reads
		MeanWriteKB: 18,
		MaxKB:       2048,
		Spatial:     0.24,
		Temporal:    0.35,
		P4:          0.53, // inside the paper's Characteristic-2 band
		BurstFrac:   0.75,
		BurstMeanMs: 6,
	}
	if err := podcast.Validate(); err != nil {
		log.Fatal(err)
	}
	tr := podcast.Generate(emmcio.DefaultSeed)

	s := emmcio.SizeStatsOf(tr)
	fmt.Printf("%s: %d requests, %.1f KB avg (R %.1f / W %.1f), %.1f%% writes\n",
		tr.Name, s.Requests, s.AveKB, s.AveReadKB, s.AveWriteKB, s.WriteReqPct)
	d := emmcio.DistributionsOf(tr)
	fmt.Printf("single-page share %.1f%% — a typical smartphone app per Characteristic 2\n\n",
		d.Single4KFraction()*100)

	fmt.Printf("%-8s %10s %12s\n", "Scheme", "MRT (ms)", "SpaceUtil")
	for _, scheme := range []emmcio.Scheme{emmcio.Scheme4PS, emmcio.Scheme8PS, emmcio.SchemeHPS} {
		dev, err := emmcio.NewDevice(scheme, emmcio.CaseStudyOptions())
		if err != nil {
			log.Fatal(err)
		}
		m, err := emmcio.Replay(context.Background(), dev, scheme, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %10.2f %12.3f\n", scheme, m.MeanResponseNs/1e6, m.SpaceUtilization)
	}
	fmt.Println("\nAny app whose size mix matches Characteristic 2 inherits the")
	fmt.Println("paper's conclusion: HPS matches 4PS space efficiency while")
	fmt.Println("serving its large requests at 8 KB-page speed.")
}
