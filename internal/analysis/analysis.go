// Package analysis computes the paper's §III trace characterization: the
// size-related statistics of Table III, the timing-related statistics of
// Table IV, the distribution figures (Figs. 4–7), and the six
// Characteristics the paper distills from them.
package analysis

import (
	"emmcio/internal/stats"
	"emmcio/internal/trace"
)

// SizeStats mirrors one row of Table III, measured from a trace.
type SizeStats struct {
	Name         string
	DataKB       int64
	Requests     int
	MaxKB        int
	AveKB        float64
	AveReadKB    float64
	AveWriteKB   float64
	WriteReqPct  float64
	WriteSizePct float64
}

// SizeStatsOf measures the Table III columns of a trace.
func SizeStatsOf(tr *trace.Trace) SizeStats {
	s := SizeStats{Name: tr.Name, Requests: len(tr.Reqs)}
	if len(tr.Reqs) == 0 {
		return s
	}
	var total, written, readBytes uint64
	var reads, writes int
	var maxSize uint32
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		total += uint64(r.Size)
		if r.Size > maxSize {
			maxSize = r.Size
		}
		if r.Op == trace.Write {
			written += uint64(r.Size)
			writes++
		} else {
			readBytes += uint64(r.Size)
			reads++
		}
	}
	s.DataKB = int64(total / 1024)
	s.MaxKB = int(maxSize / 1024)
	s.AveKB = float64(total) / float64(len(tr.Reqs)) / 1024
	if reads > 0 {
		s.AveReadKB = float64(readBytes) / float64(reads) / 1024
	}
	if writes > 0 {
		s.AveWriteKB = float64(written) / float64(writes) / 1024
	}
	s.WriteReqPct = float64(writes) / float64(len(tr.Reqs)) * 100
	if total > 0 {
		s.WriteSizePct = float64(written) / float64(total) * 100
	}
	return s
}

// TimingStats mirrors one row of Table IV, measured from a replayed trace
// (ServiceStart/Finish must be filled).
type TimingStats struct {
	Name        string
	DurationSec float64
	ArrivalRate float64 // requests per second
	AccessRate  float64 // KB per second
	NoWaitPct   float64
	MeanServMs  float64
	MeanRespMs  float64
	SpatialPct  float64
	TemporalPct float64
}

// TimingStatsOf measures the Table IV columns of a replayed trace.
func TimingStatsOf(tr *trace.Trace) TimingStats {
	t := TimingStats{Name: tr.Name}
	n := len(tr.Reqs)
	if n == 0 {
		return t
	}
	dur := tr.Duration()
	t.DurationSec = float64(dur) / 1e9
	if dur > 0 {
		t.ArrivalRate = float64(n) / t.DurationSec
		t.AccessRate = float64(tr.TotalBytes()) / 1024 / t.DurationSec
	}
	var noWait int
	var sumServ, sumResp int64
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		if r.WaitTime() == 0 {
			noWait++
		}
		sumServ += r.ServiceTime()
		sumResp += r.ResponseTime()
	}
	t.NoWaitPct = float64(noWait) / float64(n) * 100
	t.MeanServMs = float64(sumServ) / float64(n) / 1e6
	t.MeanRespMs = float64(sumResp) / float64(n) / 1e6
	t.SpatialPct = stats.SpatialLocality(tr) * 100
	t.TemporalPct = stats.TemporalLocality(tr) * 100
	return t
}

// Distributions holds the per-trace histograms behind Figs. 4, 5, 6 and 7.
type Distributions struct {
	Name         string
	Size         *stats.Histogram // Fig. 4 buckets (bytes)
	Response     *stats.Histogram // Fig. 5 buckets (ns)
	Interarrival *stats.Histogram // Fig. 6 buckets (ns)
}

// DistributionsOf builds the three histograms of a trace. Response is only
// populated when the trace has been replayed.
func DistributionsOf(tr *trace.Trace) Distributions {
	d := Distributions{
		Name:         tr.Name,
		Size:         stats.NewHistogram(stats.SizeBounds()),
		Response:     stats.NewHistogram(stats.ResponseBounds()),
		Interarrival: stats.NewHistogram(stats.InterarrivalBounds()),
	}
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		d.Size.Add(int64(r.Size))
		if rt := r.ResponseTime(); rt > 0 {
			d.Response.Add(rt)
		}
	}
	for _, gap := range stats.Interarrivals(tr) {
		d.Interarrival.Add(gap)
	}
	return d
}

// Single4KFraction returns the Fig. 4 single-page request fraction.
func (d Distributions) Single4KFraction() float64 {
	return d.Size.Fractions()[0]
}

// SizeResponseCorrelation quantifies §III-C's observation that response-time
// distributions are strongly correlated with request-size distributions:
// the Pearson correlation between request size and response time across the
// trace's requests.
func SizeResponseCorrelation(tr *trace.Trace) float64 {
	if len(tr.Reqs) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(tr.Reqs))
	ys := make([]float64, 0, len(tr.Reqs))
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		if r.ResponseTime() <= 0 {
			continue
		}
		xs = append(xs, float64(r.Size))
		ys = append(ys, float64(r.ResponseTime()))
	}
	return stats.Correlation(xs, ys)
}

// ResponseSummary returns order statistics of the trace's response times
// in nanoseconds (zero Summary for unreplayed traces).
func ResponseSummary(tr *trace.Trace) stats.Summary {
	var samples []int64
	for i := range tr.Reqs {
		if rt := tr.Reqs[i].ResponseTime(); rt > 0 {
			samples = append(samples, rt)
		}
	}
	return stats.Summarize(samples)
}

// InterarrivalSummary returns order statistics of the trace's inter-arrival
// gaps in nanoseconds.
func InterarrivalSummary(tr *trace.Trace) stats.Summary {
	return stats.Summarize(stats.Interarrivals(tr))
}

// FullReport bundles everything §III computes for one trace.
type FullReport struct {
	Size          SizeStats
	Timing        TimingStats
	Dists         Distributions
	Response      stats.Summary
	Interarrival  stats.Summary
	SizeRespCorr  float64
	GapDispersion float64
}

// Report computes the complete characterization of a (replayed) trace.
func Report(tr *trace.Trace) FullReport {
	return FullReport{
		Size:          SizeStatsOf(tr),
		Timing:        TimingStatsOf(tr),
		Dists:         DistributionsOf(tr),
		Response:      ResponseSummary(tr),
		Interarrival:  InterarrivalSummary(tr),
		SizeRespCorr:  SizeResponseCorrelation(tr),
		GapDispersion: stats.IndexOfDispersion(stats.Interarrivals(tr)),
	}
}

// Accumulator computes SizeStats, TimingStats and Distributions in one
// pass over a request stream without materializing the trace — feed it
// from a trace decoder (trace.NewDecoder, or trace.StreamText for text) for
// multi-hour collections in constant memory.
// Localities are computed with the same definitions as the batch path
// (temporal locality keeps a page-set, which grows with the unique
// footprint, not the request count).
type Accumulator struct {
	name string

	n         int
	total     uint64
	written   uint64
	readBytes uint64
	reads     int
	writes    int
	maxSize   uint32

	firstArrival int64
	lastArrival  int64
	maxFinish    int64
	noWait       int
	sumServ      int64
	sumResp      int64

	prevEnd     uint64
	seqHits     int
	seenPages   map[uint64]struct{}
	maxPages    int // 0 = unbounded (paper-exact); else page-set size cap
	temporalHit int

	dists Distributions

	resp *stats.OnlineSummary
	gaps *stats.OnlineSummary
	corr stats.OnlineCorrelation
}

// NewAccumulator builds an empty accumulator with an unbounded page set —
// temporal locality is paper-exact, and memory grows with the trace's
// unique page footprint (not its length).
func NewAccumulator(name string) *Accumulator { return NewAccumulatorBounded(name, 0) }

// NewAccumulatorBounded caps the temporal-locality page set at maxPages
// entries (0 = unbounded). Once the set is full, never-seen pages keep
// counting as misses but are no longer remembered, so the reported temporal
// locality is a lower bound; every other statistic is unaffected. Use this
// for traces whose footprint exceeds what the caller wants resident.
func NewAccumulatorBounded(name string, maxPages int) *Accumulator {
	a := &Accumulator{
		name:      name,
		seenPages: make(map[uint64]struct{}),
		maxPages:  maxPages,
		dists: Distributions{
			Name:         name,
			Size:         stats.NewHistogram(stats.SizeBounds()),
			Response:     stats.NewHistogram(stats.ResponseBounds()),
			Interarrival: stats.NewHistogram(stats.InterarrivalBounds()),
		},
		resp: stats.NewOnlineSummary(0),
		gaps: stats.NewOnlineSummary(0),
	}
	return a
}

// Add feeds one request (in arrival order).
func (a *Accumulator) Add(r trace.Request) {
	if a.n == 0 {
		a.firstArrival = r.Arrival
	} else {
		gap := r.Arrival - a.lastArrival
		a.dists.Interarrival.Add(gap)
		a.gaps.Add(gap)
		if r.LBA == a.prevEnd {
			a.seqHits++
		}
	}
	a.lastArrival = r.Arrival
	a.prevEnd = r.EndLBA()

	page := r.LBA / trace.SectorsPerPage
	if _, ok := a.seenPages[page]; ok {
		a.temporalHit++
	} else if a.maxPages == 0 || len(a.seenPages) < a.maxPages {
		a.seenPages[page] = struct{}{}
	}

	a.n++
	a.total += uint64(r.Size)
	if r.Size > a.maxSize {
		a.maxSize = r.Size
	}
	if r.Op == trace.Write {
		a.written += uint64(r.Size)
		a.writes++
	} else {
		a.readBytes += uint64(r.Size)
		a.reads++
	}
	a.dists.Size.Add(int64(r.Size))
	if rt := r.ResponseTime(); rt > 0 {
		a.dists.Response.Add(rt)
		a.resp.Add(rt)
		a.corr.Add(float64(r.Size), float64(rt))
		a.sumResp += rt
		a.sumServ += r.ServiceTime()
		if r.WaitTime() == 0 {
			a.noWait++
		}
	} else if r.ServiceStart == r.Arrival && r.Finish == 0 {
		a.noWait++
	}
	if r.Finish > a.maxFinish {
		a.maxFinish = r.Finish
	}
}

// Size returns the Table III columns accumulated so far.
func (a *Accumulator) Size() SizeStats {
	s := SizeStats{Name: a.name, Requests: a.n}
	if a.n == 0 {
		return s
	}
	s.DataKB = int64(a.total / 1024)
	s.MaxKB = int(a.maxSize / 1024)
	s.AveKB = float64(a.total) / float64(a.n) / 1024
	if a.reads > 0 {
		s.AveReadKB = float64(a.readBytes) / float64(a.reads) / 1024
	}
	if a.writes > 0 {
		s.AveWriteKB = float64(a.written) / float64(a.writes) / 1024
	}
	s.WriteReqPct = float64(a.writes) / float64(a.n) * 100
	if a.total > 0 {
		s.WriteSizePct = float64(a.written) / float64(a.total) * 100
	}
	return s
}

// Timing returns the Table IV columns accumulated so far.
func (a *Accumulator) Timing() TimingStats {
	t := TimingStats{Name: a.name}
	if a.n == 0 {
		return t
	}
	dur := a.lastArrival
	if a.maxFinish > dur {
		dur = a.maxFinish
	}
	t.DurationSec = float64(dur) / 1e9
	if dur > 0 {
		t.ArrivalRate = float64(a.n) / t.DurationSec
		t.AccessRate = float64(a.total) / 1024 / t.DurationSec
	}
	t.NoWaitPct = float64(a.noWait) / float64(a.n) * 100
	t.MeanServMs = float64(a.sumServ) / float64(a.n) / 1e6
	t.MeanRespMs = float64(a.sumResp) / float64(a.n) / 1e6
	t.SpatialPct = float64(a.seqHits) / float64(a.n) * 100
	t.TemporalPct = float64(a.temporalHit) / float64(a.n) * 100
	return t
}

// Dists returns the accumulated histograms.
func (a *Accumulator) Dists() Distributions { return a.dists }

// Requests returns the number of requests fed so far.
func (a *Accumulator) Requests() int { return a.n }

// SpatialLocality returns the §III-C sequential-successor fraction in
// [0, 1], matching stats.SpatialLocality bit for bit on the same arrival
// order (including its 0 for fewer than two requests).
func (a *Accumulator) SpatialLocality() float64 {
	if a.n < 2 {
		return 0
	}
	return float64(a.seqHits) / float64(a.n)
}

// TemporalLocality returns the §III-C address re-hit fraction in [0, 1],
// matching stats.TemporalLocality bit for bit when the page set is
// unbounded (a lower bound otherwise — see NewAccumulatorBounded).
func (a *Accumulator) TemporalLocality() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.temporalHit) / float64(a.n)
}

// Response returns order statistics of the response times seen so far —
// bit-identical to ResponseSummary while the sample count is below the
// online retention cap, a bounded-memory estimate past it.
func (a *Accumulator) Response() stats.Summary { return a.resp.Summary() }

// Interarrival returns order statistics of the arrival gaps seen so far,
// with the same exact-below-cap contract as Response.
func (a *Accumulator) Interarrival() stats.Summary { return a.gaps.Summary() }

// SizeResponseCorrelation returns the §III-C size/response-time Pearson
// correlation, bit-identical to the batch SizeResponseCorrelation over the
// same request sequence.
func (a *Accumulator) SizeResponseCorrelation() float64 { return a.corr.Value() }

// GapDispersion returns the inter-arrival index of dispersion,
// bit-identical to stats.IndexOfDispersion over the same gap sequence.
func (a *Accumulator) GapDispersion() float64 { return a.gaps.IndexOfDispersion() }

// Report bundles the accumulated characterization in the same shape as the
// batch Report. Response and Interarrival are exact below the online
// retention cap (so small-trace reports are bit-identical to the batch
// path) and bounded-memory estimates past it.
func (a *Accumulator) Report() FullReport {
	return FullReport{
		Size:          a.Size(),
		Timing:        a.Timing(),
		Dists:         a.Dists(),
		Response:      a.Response(),
		Interarrival:  a.Interarrival(),
		SizeRespCorr:  a.SizeResponseCorrelation(),
		GapDispersion: a.GapDispersion(),
	}
}

// Summary returns the per-trace bundle EvaluateCharacteristicsFrom
// consumes.
func (a *Accumulator) Summary() TraceSummary {
	return TraceSummary{Size: a.Size(), Timing: a.Timing(), Dists: a.Dists()}
}
