// daysim replays a "day in the life" of a phone on one continuously aging
// device: every application session from the paper's roster runs back to
// back on the same eMMC, so later sessions see the flash state earlier
// sessions left behind. It reports how each scheme holds up across the day
// and how much garbage collection the accumulated state triggers.
package main

import (
	"context"
	"fmt"
	"log"

	"emmcio"
)

// A plausible day: morning boot, commuting media, daytime messaging and
// browsing, evening video and an install.
var day = []string{
	emmcio.Booting,
	emmcio.Email,
	emmcio.Music,
	emmcio.GoogleMaps,
	emmcio.Messaging,
	emmcio.Twitter,
	emmcio.WebBrowsing,
	emmcio.Facebook,
	emmcio.Installing,
	emmcio.CameraVideo,
	emmcio.Movie,
	emmcio.Idle,
}

func main() {
	for _, scheme := range []emmcio.Scheme{emmcio.Scheme4PS, emmcio.SchemeHPS} {
		// Shrink the device so a full day of writes creates real GC
		// pressure (a day writes a few GB; the scaled device holds 8 GB).
		opt := emmcio.CaseStudyOptions()
		opt.ScaleBlocks = 4
		dev, err := emmcio.NewDevice(scheme, opt)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== %s (device ages across the day) ==\n", scheme)
		var offset int64
		for _, app := range day {
			tr := emmcio.GenerateTrace(app, emmcio.DefaultSeed)
			for i := range tr.Reqs {
				tr.Reqs[i].Arrival += offset
			}
			before := dev.Metrics()
			if _, err := emmcio.Replay(context.Background(), dev, scheme, emmcio.FromSlice(tr), emmcio.ReplayOpts{}); err != nil {
				log.Fatalf("%s during %s: %v", scheme, app, err)
			}
			after := dev.Metrics()
			served := after.Served - before.Served
			mrt := float64(after.SumResponseNs-before.SumResponseNs) / float64(served) / 1e6
			gcMs := float64(after.GCStallNs-before.GCStallNs) / 1e6
			fmt.Printf("  %-12s %6d reqs  MRT %8.2f ms  GC stalls %8.1f ms\n",
				app, served, mrt, gcMs)
			offset = dev.LastActivity() + 1_000_000_000
		}
		fs := dev.FTLStats()
		fmt.Printf("  day total: %.1f GB written, write amplification %.3f, space utilization %.3f\n\n",
			float64(fs.HostPayloadBytes)/(1<<30),
			1+float64(fs.GC.PageMoves)/float64(fs.HostProgrammedPages),
			fs.SpaceUtilization())
	}
}
