package emmcio_test

import (
	"context"
	"fmt"

	"emmcio"
)

// Generate a calibrated application trace and inspect its Table III
// statistics.
func ExampleGenerateTrace() {
	tr := emmcio.GenerateTrace(emmcio.Messaging, emmcio.DefaultSeed)
	s := emmcio.SizeStatsOf(tr)
	fmt.Printf("%s: %d requests, max %d KB\n", tr.Name, s.Requests, s.MaxKB)
	// Output:
	// Messaging: 5702 requests, max 128 KB
}

// Replay a trace on the hybrid-page-size device and read the §V metrics.
func ExampleReplay() {
	tr := emmcio.GenerateTrace(emmcio.CallIn, emmcio.DefaultSeed)
	dev, err := emmcio.NewDevice(emmcio.SchemeHPS, emmcio.CaseStudyOptions())
	if err != nil {
		panic(err)
	}
	m, err := emmcio.Replay(context.Background(), dev, emmcio.SchemeHPS, emmcio.FromSlice(tr), emmcio.ReplayOpts{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("scheme=%s served=%d spaceUtil=%.3f\n", m.Scheme, m.Served, m.SpaceUtilization)
	// Output:
	// scheme=HPS served=1491 spaceUtil=1.000
}

// Collect a trace through the BIOtracer monitor and check its overhead.
func ExampleCollectTrace() {
	dev, err := emmcio.NewDevice(emmcio.Scheme4PS, emmcio.Options{})
	if err != nil {
		panic(err)
	}
	tr := emmcio.GenerateTrace(emmcio.YouTube, emmcio.DefaultSeed)
	o, err := emmcio.CollectTrace(dev, tr)
	if err != nil {
		panic(err)
	}
	fmt.Printf("monitored=%d flushes=%d\n", o.MonitoredRequests, o.Flushes)
	// Output:
	// monitored=2080 flushes=6
}

// Drive the Android upper stack: SQLite transactions become journaled
// block-level writes.
func ExampleOpenSQLiteDB() {
	sink := &emmcio.TraceCollector{}
	fs := emmcio.NewAndroidFS(sink)
	db, err := emmcio.OpenSQLiteDB(fs, "app.db", emmcio.SQLiteRollback)
	if err != nil {
		panic(err)
	}
	if err := db.Exec([]int64{1}); err != nil {
		panic(err)
	}
	fmt.Printf("one transaction -> %d block requests\n", len(sink.Trace.Reqs)-4)
	// Output:
	// one transaction -> 12 block requests
}
