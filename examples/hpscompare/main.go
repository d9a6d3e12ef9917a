// hpscompare runs the paper's §V case study end to end on a chosen set of
// applications: replay each trace on the 4PS, 8PS and HPS devices of
// Table V and print the Fig. 8 (mean response time) and Fig. 9 (space
// utilization) comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"emmcio"
)

func main() {
	apps := flag.String("apps", "Booting,Movie,Twitter,Installing",
		"comma-separated application list")
	seed := flag.Uint64("seed", emmcio.DefaultSeed, "generation seed")
	flag.Parse()

	names := strings.Split(*apps, ",")
	opt := emmcio.CaseStudyOptions()
	schemes := []emmcio.Scheme{emmcio.Scheme4PS, emmcio.Scheme8PS, emmcio.SchemeHPS}

	fmt.Printf("%-12s %10s %10s %10s %12s %10s\n",
		"Application", "4PS(ms)", "8PS(ms)", "HPS(ms)", "HPSvs4PS", "8PSutil")
	for _, name := range names {
		name = strings.TrimSpace(name)
		if emmcio.Profiles().Lookup(name) == nil {
			log.Fatalf("unknown application %q", name)
		}
		tr := emmcio.GenerateTrace(name, *seed)
		var mrt [3]float64
		var util [3]float64
		for i, s := range schemes {
			dev, err := emmcio.NewDevice(s, opt)
			if err != nil {
				log.Fatal(err)
			}
			m, err := emmcio.Replay(context.Background(), dev, s, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
			if err != nil {
				log.Fatal(err)
			}
			mrt[i] = m.MeanResponseNs / 1e6
			util[i] = m.SpaceUtilization
		}
		fmt.Printf("%-12s %10.2f %10.2f %10.2f %11.1f%% %10.3f\n",
			name, mrt[0], mrt[1], mrt[2], 100*(1-mrt[2]/mrt[0]), util[1])
	}
	fmt.Println("\nHPS always matches 4PS space utilization (1.000) while serving")
	fmt.Println("large requests with 8 KB pages — the paper's §V design point.")
}
