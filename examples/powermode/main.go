// powermode explores Characteristic 4: an eMMC device drops into a
// low-power state when requests stop arriving, and the wake-up penalty
// inflates the response times of low-arrival-rate applications. The example
// replays a low-rate and a high-rate application with the power model on
// and off.
package main

import (
	"context"
	"fmt"
	"log"

	"emmcio"
)

func main() {
	apps := []string{
		emmcio.Idle,      // 0.24 req/s — sleeps constantly
		emmcio.YouTube,   // 0.44 req/s
		emmcio.Messaging, // 9.68 req/s — rarely sleeps
		emmcio.Twitter,   // 16.13 req/s
	}

	fmt.Printf("%-12s %16s %16s %12s %12s\n",
		"Application", "MRT no-power(ms)", "MRT power(ms)", "light wakes", "deep wakes")
	for _, app := range apps {
		var mrt [2]float64
		var light, deep int64
		tr := emmcio.GenerateTrace(app, emmcio.DefaultSeed)
		for i, power := range []bool{false, true} {
			opt := emmcio.CaseStudyOptions()
			opt.PowerSaving = power
			dev, err := emmcio.NewDevice(emmcio.Scheme4PS, opt)
			if err != nil {
				log.Fatal(err)
			}
			m, err := emmcio.Replay(context.Background(), dev, emmcio.Scheme4PS, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
			if err != nil {
				log.Fatal(err)
			}
			mrt[i] = m.MeanResponseNs / 1e6
			if power {
				light, deep = m.LightWakes, m.DeepWakes
			}
		}
		fmt.Printf("%-12s %16.2f %16.2f %12d %12d\n", app, mrt[0], mrt[1], light, deep)
	}
	fmt.Println("\nLow-rate applications pay a wake-up on most requests, which is")
	fmt.Println("why Idle/CallIn/CallOut/YouTube show the highest mean service")
	fmt.Println("times in Table IV despite their tiny load (Characteristic 4).")
}
