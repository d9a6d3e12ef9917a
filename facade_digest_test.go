package emmcio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// The §III facade (SizeStatsOf, TimingStatsOf, DistributionsOf,
// AnalyzeTrace, EvaluateCharacteristics) is pinned by the SHA-256 of its
// JSON output on a fixed set of traces: generated applications before and
// after an HPS replay, the degenerate shapes (empty, one request, a
// zero-length replayed request, unsorted arrivals), and a synthetic replayed
// trace longer than the online summaries' default retention cap. A change
// that moves any §III number, bucket count or percentile fails it.

// facadeDigestApps are replayed on a fresh HPS device each; they are small
// enough that the whole test stays well under two seconds.
var facadeDigestApps = []string{CallIn, Email, Twitter, Messaging, Radio}

var wantFacadeDigests = map[string]string{
	"CallIn":              "855487858958700bf66861565dc6bf42fc0e76c37f78405c6aa185f61166c54e",
	"CallIn/HPS":          "8e832e7efefa6f6738bef74bf5dab1fcdfeac433f6c18b45ec04dd1b443ec70f",
	"Email":               "e27b83a237aa745263e0a68774ced65e79974d3050cae40d09426e395e907ff9",
	"Email/HPS":           "1285ca203dd4f05683c3770332daa1b9b346afc252e19d673fe89160cd7a6fc4",
	"Messaging":           "de571d6c1da3c9abef63bc46e4238ad96acd07cd526ffe44b1668ca736ed1d5f",
	"Messaging/HPS":       "92a0b3e895403aa50f5d97c3ed21dfa0325cf8d534f20bfac585bff52862fe5c",
	"Radio":               "2505df031599f6f71d21c73a144b83177e12fe9ae0d6f037a75ebb8a50a396a1",
	"Radio/HPS":           "d2beb5aef988d647b7bff89db8f799d186fe3ebea330d8c35d9b7a352722e288",
	"Twitter":             "347e59d95488c0df3d2581014260439478ffbbfc5e074db556c7b9678d791c80",
	"Twitter/HPS":         "48d6470e3823ca167e5fae2e898b16a8fc23187d7037e885e27b237f37729b9a",
	"empty":               "ce3fcf0d507d0e08d1f7163be34b50766929082c1662f3190899a147504953ad",
	"long":                "7e1ecf6d75702931f3a8bbc4329a16e8b273e5643790ba4288d7b9a696d3f1c0",
	"one":                 "b5277c99c0c90c60a8488669622674071560a676773ec63671c9f8f9f2bf0cea",
	"set/HPS":             "d8ac6102d5300b255f53539a8e1169d36cfae7131f8739bd249c37245f238c67",
	"unsorted":            "5396a3310b0e997c6f6a2e2862512ef603973c7e29144c337b44eb9b80951eb3",
	"unsorted/unreplayed": "25cf08f7e28fcae04389d91ede3f7dc3c291828db796c6ee43b830642813123d",
	"zero-length":         "5d38f214ff02cd6caab2a1e4f41b307d424f5d2eb9a9642b81b2af8364479d13",
}

// facadeOutputs is every facade result for one trace, in a fixed order.
type facadeOutputs struct {
	Size     SizeStats
	Timing   TimingStats
	Dists    Distributions
	Report   FullReport
	Findings []Finding
}

func facadeDigest(t *testing.T, traces ...*Trace) string {
	t.Helper()
	var out []facadeOutputs
	for _, tr := range traces {
		out = append(out, facadeOutputs{
			Size:     SizeStatsOf(tr),
			Timing:   TimingStatsOf(tr),
			Dists:    DistributionsOf(tr),
			Report:   AnalyzeTrace(tr),
			Findings: EvaluateCharacteristics([]*Trace{tr}),
		})
	}
	b, err := json.Marshal(struct {
		PerTrace []facadeOutputs
		Set      []Finding
	}{out, EvaluateCharacteristics(traces)})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// replayHPS replays tr on a fresh case-study HPS device and returns the
// requests with their replayed timestamps, as collected by a Sink.
func replayHPS(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	dev, err := NewDevice(SchemeHPS, CaseStudyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := &Trace{Name: tr.Name, Reqs: make([]Request, 0, len(tr.Reqs))}
	_, err = Replay(context.Background(), dev, SchemeHPS, FromSlice(tr), ReplayOpts{Sink: func(r Request) error {
		out.Reqs = append(out.Reqs, r)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// longReplayedTrace is a device-free replayed trace of n requests with
// arithmetic timestamps: a mix of sizes, ops, waits and sequential runs.
func longReplayedTrace(n int) *Trace {
	tr := &Trace{Name: "Long", Reqs: make([]Request, n)}
	var lba uint64
	for i := range tr.Reqs {
		size := uint32(4096 << (i % 5))
		arrival := int64(i)*1_500_000 + int64(i%7)*40_000
		start := arrival + int64(i%3)*250_000
		if i%11 != 0 {
			lba = uint64(i%4096) * 64
		}
		op := Write
		if i%3 == 0 {
			op = Read
		}
		tr.Reqs[i] = Request{
			Arrival:      arrival,
			LBA:          lba,
			Size:         size,
			Op:           op,
			ServiceStart: start,
			Finish:       start + 100_000 + int64(size)*20 + int64(i%13)*9_000,
		}
		lba += uint64(size) / 512
	}
	return tr
}

func facadeDigestCases(t *testing.T) map[string][]*Trace {
	t.Helper()
	cases := map[string][]*Trace{}
	var replayed []*Trace
	for _, app := range facadeDigestApps {
		tr := GenerateTrace(app, DefaultSeed)
		r := replayHPS(t, tr)
		cases[app] = []*Trace{tr}
		cases[app+"/HPS"] = []*Trace{r}
		replayed = append(replayed, r)
	}
	cases["set/HPS"] = replayed
	cases["empty"] = []*Trace{{Name: "Empty"}}
	cases["one"] = []*Trace{{Name: "One", Reqs: []Request{
		{Arrival: 3_000_000, LBA: 800, Size: 8192, Op: Write, ServiceStart: 3_000_000, Finish: 3_900_000},
	}}}
	// A replayed request that took no time at all: Arrival == ServiceStart
	// == Finish > 0 gives it a zero response and service time.
	cases["zero-length"] = []*Trace{{Name: "ZeroLen", Reqs: []Request{
		{Arrival: 1_000_000, LBA: 0, Size: 4096, Op: Write, ServiceStart: 1_000_000, Finish: 1_400_000},
		{Arrival: 2_000_000, LBA: 8, Size: 4096, Op: Write, ServiceStart: 2_000_000, Finish: 2_000_000},
		{Arrival: 3_000_000, LBA: 8, Size: 16384, Op: Read, ServiceStart: 3_200_000, Finish: 3_700_000},
	}}}
	// Arrivals out of order: negative gaps, and the latest arrival is not
	// the last request's.
	cases["unsorted"] = []*Trace{{Name: "Unsorted", Reqs: []Request{
		{Arrival: 9_000_000, LBA: 64, Size: 4096, Op: Write, ServiceStart: 9_000_000, Finish: 9_300_000},
		{Arrival: 2_000_000, LBA: 72, Size: 8192, Op: Read, ServiceStart: 2_100_000, Finish: 2_600_000},
		{Arrival: 5_000_000, LBA: 64, Size: 4096, Op: Write, ServiceStart: 5_000_000, Finish: 5_200_000},
		{Arrival: 4_000_000, LBA: 4096, Size: 65536, Op: Write, ServiceStart: 4_000_000, Finish: 4_900_000},
	}}}
	unreplayed := cases["unsorted"][0].Clone()
	unreplayed.ClearTimestamps()
	cases["unsorted/unreplayed"] = []*Trace{unreplayed}
	cases["long"] = []*Trace{longReplayedTrace(70_000)}
	return cases
}

func TestFacadeDigests(t *testing.T) {
	cases := facadeDigestCases(t)
	if len(cases) != len(wantFacadeDigests) {
		t.Errorf("%d cases, %d pinned digests", len(cases), len(wantFacadeDigests))
	}
	for name, traces := range cases {
		got := facadeDigest(t, traces...)
		if want := wantFacadeDigests[name]; got != want {
			t.Errorf("%s: digest %s, pinned %s", name, got, want)
		}
	}
}
