package emmcio

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// stringsReader avoids importing strings twice in examples of the test.
func stringsReader(s string) *strings.Reader { return strings.NewReader(s) }

// Facade smoke tests: the public API works end to end the way the package
// documentation promises.

func TestQuickStartFlow(t *testing.T) {
	tr := GenerateTrace(Twitter, DefaultSeed)
	if len(tr.Reqs) == 0 {
		t.Fatal("empty trace")
	}
	dev, err := NewDevice(SchemeHPS, CaseStudyOptions())
	if err != nil {
		t.Fatal(err)
	}
	replayed := &Trace{Name: tr.Name}
	m, err := Replay(context.Background(), dev, SchemeHPS, FromSlice(tr), ReplayOpts{Sink: func(r Request) error {
		replayed.Reqs = append(replayed.Reqs, r)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanResponseNs <= 0 {
		t.Fatal("no response time measured")
	}
	if len(replayed.Reqs) != len(tr.Reqs) {
		t.Fatalf("sink saw %d of %d requests", len(replayed.Reqs), len(tr.Reqs))
	}
	if err := replayed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateTracePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown app did not panic")
		}
	}()
	GenerateTrace("Netflix", 1)
}

func TestProfilesRegistry(t *testing.T) {
	reg := Profiles()
	if len(reg.Names()) != 25 {
		t.Fatalf("registry holds %d profiles, want 25", len(reg.Names()))
	}
	if reg.Lookup(Movie) == nil {
		t.Fatal("Movie profile missing")
	}
}

func TestTraceCodecsExported(t *testing.T) {
	tr := GenerateTrace(CallIn, DefaultSeed)
	var buf bytes.Buffer
	if err := WriteTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != CallIn || len(got.Reqs) != len(tr.Reqs) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestTracerFacade(t *testing.T) {
	dev, err := NewDevice(Scheme4PS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateTrace(YouTube, DefaultSeed)
	o, err := CollectTrace(dev, tr)
	if err != nil {
		t.Fatal(err)
	}
	if o.MonitoredRequests != len(tr.Reqs) {
		t.Fatal("tracer missed requests")
	}
	stats := TimingStatsOf(tr)
	if stats.MeanRespMs <= 0 {
		t.Fatal("no timing stats after collection")
	}
}

func TestAnalysisFacade(t *testing.T) {
	tr := GenerateTrace(Email, DefaultSeed)
	s := SizeStatsOf(tr)
	if s.Requests != len(tr.Reqs) {
		t.Fatal("size stats request count mismatch")
	}
	d := DistributionsOf(tr)
	if d.Size.Total() != int64(len(tr.Reqs)) {
		t.Fatal("distribution count mismatch")
	}
}

func TestRosterConstants(t *testing.T) {
	if len(IndividualApps) != 18 || len(ComboApps) != 7 || len(AllTraces) != 25 {
		t.Fatal("roster constants drifted")
	}
}

func TestRunCaseStudySubset(t *testing.T) {
	// Full case study is exercised in internal/experiments; here just check
	// the public entry point renders on a tiny environment by reusing it
	// with the default env but only verifying it starts producing output.
	if testing.Short() {
		t.Skip("runs 54 replays")
	}
	env := NewExperimentEnv(DefaultSeed)
	var buf bytes.Buffer
	if err := RunCaseStudyContext(context.Background(), env, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 8") || !strings.Contains(out, "Fig. 9") {
		t.Fatal("case study output missing figures")
	}
	if !strings.Contains(out, "Booting") {
		t.Fatal("case study output missing traces")
	}
}

func TestAndroidStackFacade(t *testing.T) {
	sink := &TraceCollector{}
	fs := NewAndroidFS(sink)
	db, err := OpenSQLiteDB(fs, "t.db", SQLiteWAL)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if len(sink.Trace.Reqs) == 0 {
		t.Fatal("stack emitted nothing")
	}
	if db.LogicalBytes() != 2*4096 {
		t.Fatalf("logical bytes %d", db.LogicalBytes())
	}
}

func TestBlockStackFacade(t *testing.T) {
	dev, err := NewDevice(Scheme4PS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewBlockStack(DefaultBlockConfig(), dev)
	tr := GenerateTrace(CallOut, DefaultSeed)
	out, stats, err := st.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeviceRequests == 0 || len(out.Reqs) == 0 {
		t.Fatal("stack served nothing")
	}
	if out.TotalBytes() != tr.TotalBytes() {
		t.Fatal("stack lost bytes")
	}
}

func TestWearPolicyFacade(t *testing.T) {
	opt := Options{Wear: WearStatic}
	dev, err := NewDevice(Scheme4PS, opt)
	if err != nil {
		t.Fatal(err)
	}
	em, ok := dev.(*Device)
	if !ok {
		t.Fatalf("default backend is %T, want the eMMC device", dev)
	}
	if em.Config().Wear != WearStatic {
		t.Fatal("wear policy not plumbed through")
	}
}

func TestReadBlkparseFacade(t *testing.T) {
	in := "8,0 0 1 0.000001 1 Q W 800 + 8 [x]\n"
	tr, err := ReadBlkparse(stringsReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Reqs) != 1 {
		t.Fatal("blkparse import failed")
	}
}
