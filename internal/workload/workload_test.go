package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"emmcio/internal/analysis"
	"emmcio/internal/paper"
	"emmcio/internal/stats"
	"emmcio/internal/trace"
)

const testSeed = DefaultSeed

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestRosterShape(t *testing.T) {
	if len(Apps()) != 18 {
		t.Fatalf("%d app profiles, want 18", len(Apps()))
	}
	if len(Combos()) != 7 {
		t.Fatalf("%d combo profiles, want 7", len(Combos()))
	}
	for i, p := range All() {
		if p.Name != paper.AllTraces[i] {
			t.Fatalf("profile %d is %q, want %q (paper order)", i, p.Name, paper.AllTraces[i])
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultRegistry().Lookup(paper.Twitter)
	a := p.Generate(testSeed)
	b := p.Generate(testSeed)
	if len(a.Reqs) != len(b.Reqs) {
		t.Fatal("same seed produced different request counts")
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			t.Fatalf("request %d differs between identical-seed runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	p := DefaultRegistry().Lookup(paper.Twitter)
	a := p.Generate(1)
	b := p.Generate(2)
	same := 0
	for i := range a.Reqs {
		if a.Reqs[i].LBA == b.Reqs[i].LBA {
			same++
		}
	}
	if same > len(a.Reqs)/10 {
		t.Fatalf("different seeds produced %d/%d identical addresses", same, len(a.Reqs))
	}
}

func TestGeneratedTracesValidate(t *testing.T) {
	for _, p := range All() {
		tr := p.Generate(testSeed)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// Table III calibration: request count exact; write-request percentage,
// mean read/write sizes, total data volume within tolerance; max size exact.
func TestTableIIICalibration(t *testing.T) {
	for _, p := range All() {
		tr := p.Generate(testSeed)
		row := paper.TableIII[p.Name]

		if got, want := len(tr.Reqs), paper.EffectiveRequests(p.Name); got != want {
			t.Errorf("%s: %d requests, want %d", p.Name, got, want)
		}

		wfrac := float64(tr.WriteCount()) / float64(len(tr.Reqs))
		if math.Abs(wfrac-row.WriteReqPct/100) > 0.03 {
			t.Errorf("%s: write fraction %.3f, paper %.3f", p.Name, wfrac, row.WriteReqPct/100)
		}

		var maxSize uint32
		var readBytes, writeBytes, readN, writeN float64
		for _, r := range tr.Reqs {
			if r.Size > maxSize {
				maxSize = r.Size
			}
			if r.Op == trace.Write {
				writeBytes += float64(r.Size)
				writeN++
			} else {
				readBytes += float64(r.Size)
				readN++
			}
		}
		// The injected maximum is rounded up to a whole page (Table III's
		// GoogleMaps row is not 4 KB-aligned).
		if d := int(maxSize/1024) - row.MaxKB; d < 0 || d > 3 {
			t.Errorf("%s: max size %d KB, paper %d KB", p.Name, maxSize/1024, row.MaxKB)
		}
		// Small per-op populations carry sampling noise; widen the band.
		tol := func(n float64) float64 {
			if n > 1000 {
				return 0.20
			}
			return 0.35
		}
		if readN > 50 { // tiny read populations are too noisy to compare
			meanR := readBytes / readN / 1024
			if relDiff(meanR, row.AveReadKB) > tol(readN) {
				t.Errorf("%s: mean read %.1f KB, paper %.1f KB", p.Name, meanR, row.AveReadKB)
			}
		}
		if writeN > 50 {
			meanW := writeBytes / writeN / 1024
			if relDiff(meanW, row.AveWriteKB) > tol(writeN) {
				t.Errorf("%s: mean write %.1f KB, paper %.1f KB", p.Name, meanW, row.AveWriteKB)
			}
		}
		dataKB := float64(tr.TotalBytes()) / 1024
		if relDiff(dataKB, float64(row.DataKB)) > 0.25 {
			t.Errorf("%s: data volume %.0f KB, paper %d KB", p.Name, dataKB, row.DataKB)
		}
	}
}

// Characteristic 2: in the fifteen 4 KB-majority individual traces the
// single-page fraction lands in (or very near) the published 44.9%–57.4%
// band; Movie, Booting and CameraVideo stay below it.
func TestCharacteristic2P4Band(t *testing.T) {
	for _, p := range Apps() {
		tr := p.Generate(testSeed)
		h := stats.NewHistogram(stats.SizeBounds())
		for _, r := range tr.Reqs {
			h.Add(int64(r.Size))
		}
		p4 := h.Fractions()[0]
		if paper.NotP4Majority[p.Name] {
			if p4 >= paper.Char2MinP4 {
				t.Errorf("%s: p4 %.3f should be below the Characteristic-2 band", p.Name, p4)
			}
			continue
		}
		if p4 < paper.Char2MinP4-0.03 || p4 > paper.Char2MaxP4+0.03 {
			t.Errorf("%s: p4 %.3f outside band [%.3f, %.3f]",
				p.Name, p4, paper.Char2MinP4, paper.Char2MaxP4)
		}
	}
}

// Table IV duration calibration: generated traces span the published
// recording duration, hence reproduce arrival and access rates.
func TestTableIVDurationAndRates(t *testing.T) {
	for _, p := range All() {
		tr := p.Generate(testSeed)
		row := paper.TableIV[p.Name]
		durSec := float64(tr.Duration()) / 1e9
		if relDiff(durSec, row.DurationSec) > 0.05 {
			t.Errorf("%s: duration %.0f s, paper %.0f s", p.Name, durSec, row.DurationSec)
		}
		rate := float64(len(tr.Reqs)) / durSec
		if relDiff(rate, row.ArrivalRate) > 0.15 {
			t.Errorf("%s: arrival rate %.2f/s, paper %.2f/s", p.Name, rate, row.ArrivalRate)
		}
	}
}

// Locality calibration: spatial and temporal locality land within a few
// points of Table IV.
func TestLocalityCalibration(t *testing.T) {
	for _, p := range All() {
		tr := p.Generate(testSeed)
		row := paper.TableIV[p.Name]
		acc := analysis.Of(tr)
		sp := acc.SpatialLocality() * 100
		tp := acc.TemporalLocality() * 100
		if math.Abs(sp-row.SpatialPct) > 5 {
			t.Errorf("%s: spatial locality %.1f%%, paper %.1f%%", p.Name, sp, row.SpatialPct)
		}
		if math.Abs(tp-row.TemporalPct) > 6 {
			t.Errorf("%s: temporal locality %.1f%%, paper %.1f%%", p.Name, tp, row.TemporalPct)
		}
	}
}

// The generator's calibration probe measures temporal locality exactly as
// the §III characterization reports it.
func TestMeasureTemporalMatchesAccumulator(t *testing.T) {
	for _, p := range All() {
		tr := p.Generate(testSeed)
		if got, want := measureTemporal(tr), analysis.Of(tr).TemporalLocality(); got != want {
			t.Errorf("%s: measureTemporal %v, Accumulator %v", p.Name, got, want)
		}
	}
}

// Characteristic 6 / Fig. 6: exactly the ten designated individual traces
// keep more than 20% of their inter-arrival gaps above 16 ms.
func TestCharacteristic6InterarrivalTail(t *testing.T) {
	over := map[string]bool{}
	for _, p := range Apps() {
		tr := p.Generate(testSeed)
		fr := analysis.Of(tr).Dists().Interarrival.Fractions()
		over[p.Name] = fr[len(fr)-1] > 0.20
	}
	n := 0
	for _, v := range over {
		if v {
			n++
		}
	}
	if n < 9 || n > 11 {
		t.Errorf("%d traces with >20%% gaps above 16ms, paper says 10 (map: %v)", n, over)
	}
	for _, name := range []string{paper.Booting, paper.Movie, paper.Installing} {
		if over[name] {
			t.Errorf("%s should be burst-dominated (<=20%% gaps above 16 ms)", name)
		}
	}
}

// Fig. 6 detail: most Movie gaps are below 1 ms.
func TestMovieGapsMostlySubMillisecond(t *testing.T) {
	tr := DefaultRegistry().Lookup(paper.Movie).Generate(testSeed)
	if f := analysis.Of(tr).Dists().Interarrival.Fractions()[0]; f < 0.5 {
		t.Errorf("Movie sub-1ms gap fraction %.2f, want most (Fig. 6)", f)
	}
}

// Fig. 4 detail: Movie has a 16–64 KB hump (>65% of requests).
func TestMovieSizeHump(t *testing.T) {
	tr := DefaultRegistry().Lookup(paper.Movie).Generate(testSeed)
	h := stats.NewHistogram(stats.SizeBounds())
	for _, r := range tr.Reqs {
		h.Add(int64(r.Size))
	}
	fr := h.Fractions()
	// Bucket 2 is (16 KB, 64 KB]; Fig. 4's 16–64 KB band also includes 16 KB
	// itself, which our bucket 1 (4,16] partially holds, so test the union.
	if fr[1]+fr[2] < 0.65 {
		t.Errorf("Movie 4–64 KB mass %.2f, want > 0.65 (Fig. 4 hump)", fr[1]+fr[2])
	}
}

// Fig. 7a: Music-included combos have a higher 4 KB fraction than
// Radio-included combos.
func TestFig7aMusicVsRadioCombos(t *testing.T) {
	reg := DefaultRegistry()
	p4 := func(name string) float64 {
		tr := reg.Lookup(name).Generate(testSeed)
		h := stats.NewHistogram(stats.SizeBounds())
		for _, r := range tr.Reqs {
			h.Add(int64(r.Size))
		}
		return h.Fractions()[0]
	}
	pairs := [][2]string{
		{paper.MusicWB, paper.RadioWB},
		{paper.MusicFB, paper.RadioFB},
		{paper.MusicMsg, paper.RadioMsg},
	}
	for _, pr := range pairs {
		if p4(pr[0]) <= p4(pr[1]) {
			t.Errorf("%s p4 %.3f not above %s p4 %.3f (Fig. 7a)",
				pr[0], p4(pr[0]), pr[1], p4(pr[1]))
		}
	}
}

// Largest read request across all traces is 256 KB (§III-A).
func TestLargestReadIs256KB(t *testing.T) {
	var maxRead uint32
	for _, p := range All() {
		tr := p.Generate(testSeed)
		for _, r := range tr.Reqs {
			if r.Op == trace.Read && r.Size > maxRead {
				maxRead = r.Size
			}
		}
	}
	if maxRead > 256*1024 {
		t.Fatalf("largest generated read is %d KB, paper caps reads at 256 KB", maxRead/1024)
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := DefaultRegistry()
	if reg.Lookup(paper.Email) == nil {
		t.Fatal("Email profile missing")
	}
	if reg.Lookup("NoSuchApp") != nil {
		t.Fatal("Lookup invented a profile")
	}
	if len(reg.Names()) != 25 || len(reg.SortedNames()) != 25 {
		t.Fatal("registry should hold 25 profiles")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	p := fromPaper(paper.Email, 0.5, 0.7, 4)
	NewRegistry(p, p)
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := fromPaper(paper.Email, 0.5, 0.7, 4)
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Requests = 0 },
		func(p *Profile) { p.DurationSec = -1 },
		func(p *Profile) { p.WriteFrac = 1.5 },
		func(p *Profile) { p.P4 = 1.0 },
		func(p *Profile) { p.MaxKB = 0 },
		func(p *Profile) { p.BurstFrac = 1.0 },
	}
	for i, mutate := range cases {
		p := *good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad profile accepted", i)
		}
	}
}

func TestSizeLadder(t *testing.T) {
	l := sizeLadder(128)
	if l[0] != 8 {
		t.Fatalf("ladder starts at %d, want 8", l[0])
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not increasing: %v", l)
		}
		if l[i]%4 != 0 {
			t.Fatalf("ladder rung %d not a 4 KB multiple", l[i])
		}
	}
	if l[len(l)-1] > 128 {
		t.Fatalf("ladder exceeds cap: %v", l)
	}
}

func TestBuildMixMatchesTargets(t *testing.T) {
	cases := []struct {
		p4, mean float64
		max      int
	}{
		{0.5, 17.5, 1536},
		{0.574, 13.5, 2216},
		{0.28, 53.0, 20816},
		{0.4, 736.5, 10104},
		{0.46, 9.5, 940},
	}
	for _, c := range cases {
		m := buildMix(c.p4, c.mean, c.max)
		meanKB := m.Mean() / 1024
		if relDiff(meanKB, c.mean) > 0.10 {
			t.Errorf("buildMix(%v,%v,%v): mean %.1f KB", c.p4, c.mean, c.max, meanKB)
		}
	}
}

// Generator stability: the calibrated statistics are properties of the
// profile, not artifacts of one seed. Five different seeds must land the
// headline metrics in tight bands.
func TestSeedStability(t *testing.T) {
	prof := DefaultRegistry().Lookup(paper.Twitter)
	row := paper.TableIII[paper.Twitter]
	for seed := uint64(100); seed < 105; seed++ {
		tr := prof.Generate(seed)
		wfrac := float64(tr.WriteCount()) / float64(len(tr.Reqs)) * 100
		if math.Abs(wfrac-row.WriteReqPct) > 2.5 {
			t.Errorf("seed %d: write%% %.1f vs %.1f", seed, wfrac, row.WriteReqPct)
		}
		h := stats.NewHistogram(stats.SizeBounds())
		for _, r := range tr.Reqs {
			h.Add(int64(r.Size))
		}
		if p4 := h.Fractions()[0]; math.Abs(p4-0.574) > 0.03 {
			t.Errorf("seed %d: p4 %.3f drifted", seed, p4)
		}
		sp := analysis.Of(tr).SpatialLocality() * 100
		if math.Abs(sp-paper.TableIV[paper.Twitter].SpatialPct) > 5 {
			t.Errorf("seed %d: spatial %.1f drifted", seed, sp)
		}
	}
}

// The generated inter-arrival processes are over-dispersed (burst/idle
// mixtures), matching Fig. 6's shape rather than a Poisson process.
func TestInterarrivalsOverdispersed(t *testing.T) {
	for _, name := range []string{paper.Twitter, paper.Idle, paper.Facebook} {
		tr := DefaultRegistry().Lookup(name).Generate(testSeed)
		acc := analysis.Of(tr)
		if d, mean := acc.GapDispersion(), acc.Interarrival().Mean; d < mean {
			// Dispersion index for an exponential process equals its mean
			// (in the same units); a mixture exceeds it.
			t.Errorf("%s: dispersion %.0f not above exponential level %.0f", name, d, mean)
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	orig := DefaultRegistry().Lookup(paper.Movie) // has explicit mixes
	var buf bytes.Buffer
	if err := WriteProfileJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfileJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same profile → identical traces.
	a := orig.Generate(99)
	b := back.Generate(99)
	if len(a.Reqs) != len(b.Reqs) {
		t.Fatal("round-trip changed request count")
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			t.Fatalf("request %d differs after JSON round trip", i)
		}
	}
}

func TestReadProfileJSONRejects(t *testing.T) {
	if _, err := ReadProfileJSON(strings.NewReader("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := ReadProfileJSON(strings.NewReader(`{"name":""}`)); err == nil {
		t.Fatal("invalid profile accepted")
	}
	if _, err := ReadProfileJSON(strings.NewReader(`{"name":"x","bogusField":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
