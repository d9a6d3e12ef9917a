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

// Distributions holds the per-trace histograms behind Figs. 4, 5, 6 and 7.
type Distributions struct {
	Name         string
	Size         *stats.Histogram // Fig. 4 buckets (bytes)
	Response     *stats.Histogram // Fig. 5 buckets (ns)
	Interarrival *stats.Histogram // Fig. 6 buckets (ns)
}

// Single4KFraction returns the Fig. 4 single-page request fraction.
func (d Distributions) Single4KFraction() float64 {
	return d.Size.Fractions()[0]
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

// Accumulator is the one implementation of the §III characterization: it
// computes SizeStats, TimingStats, Distributions, the localities and the
// response/inter-arrival summaries in one pass over a request sequence.
// Feed it from any trace.Stream (AccumulateStream) — a trace decoder
// characterizes a multi-hour collection without materializing it — or from
// a materialized trace (Of). Memory grows with the unique page footprint
// (the temporal-locality page set) and the summaries' retention cap:
// stats.DefaultOnlineCap samples for a stream, every request for Of.
type Accumulator struct {
	name string

	n         int
	total     uint64
	written   uint64
	readBytes uint64
	reads     int
	writes    int
	maxSize   uint32

	lastArrival int64
	end         int64 // latest arrival or finish, as Trace.Duration
	noWait      int
	sumServ     int64
	sumResp     int64

	prevEnd     uint64
	seqHits     int
	seenPages   map[uint64]struct{}
	temporalHit int

	dists Distributions

	resp *stats.OnlineSummary
	gaps *stats.OnlineSummary
	corr stats.OnlineCorrelation
}

// NewAccumulator builds an empty accumulator whose response and
// inter-arrival summaries stay exact up to stats.DefaultOnlineCap samples.
func NewAccumulator(name string) *Accumulator { return newAccumulator(name, 0) }

// newAccumulator retains up to capSamples response times and arrival gaps
// for exact summaries (0 = stats.DefaultOnlineCap).
func newAccumulator(name string, capSamples int) *Accumulator {
	return &Accumulator{
		name:      name,
		seenPages: make(map[uint64]struct{}),
		dists: Distributions{
			Name:         name,
			Size:         stats.NewHistogram(stats.SizeBounds()),
			Response:     stats.NewHistogram(stats.ResponseBounds()),
			Interarrival: stats.NewHistogram(stats.InterarrivalBounds()),
		},
		resp: stats.NewOnlineSummary(capSamples),
		gaps: stats.NewOnlineSummary(capSamples),
	}
}

// Add feeds one request (in arrival order).
func (a *Accumulator) Add(r trace.Request) {
	if a.n > 0 {
		gap := r.Arrival - a.lastArrival
		a.dists.Interarrival.Add(gap)
		a.gaps.Add(gap)
		if r.LBA == a.prevEnd {
			a.seqHits++
		}
	}
	a.lastArrival = r.Arrival
	a.prevEnd = r.EndLBA()
	a.end = max(a.end, r.Arrival, r.Finish)

	page := r.LBA / trace.SectorsPerPage
	if _, ok := a.seenPages[page]; ok {
		a.temporalHit++
	} else {
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

	if r.WaitTime() == 0 {
		a.noWait++
	}
	a.sumServ += r.ServiceTime()
	rt := r.ResponseTime()
	a.sumResp += rt
	if rt > 0 {
		a.dists.Response.Add(rt)
		a.resp.Add(rt)
		a.corr.Add(float64(r.Size), float64(rt))
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
	t.DurationSec = float64(a.end) / 1e9
	if a.end > 0 {
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

// SpatialLocality implements the paper's definition (§III-C): the fraction
// of requests, in [0, 1], whose starting address is next to the ending
// address of their predecessor; 0 for fewer than two requests.
func (a *Accumulator) SpatialLocality() float64 {
	if a.n < 2 {
		return 0
	}
	return float64(a.seqHits) / float64(a.n)
}

// TemporalLocality implements the paper's definition (§III-C): the fraction
// of requests, in [0, 1], that re-access an address seen before. Addresses
// are tracked at request-start granularity in 4 KB pages, the granularity
// the file system aligns requests to.
func (a *Accumulator) TemporalLocality() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.temporalHit) / float64(a.n)
}

// Response returns order statistics of the replayed requests' response
// times in nanoseconds: stats.Summarize over the samples up to the
// retention cap (every request for Of), a bounded-memory estimate past it.
func (a *Accumulator) Response() stats.Summary { return a.resp.Summary() }

// Interarrival returns order statistics of the arrival gaps seen so far,
// with the same exact-below-cap contract as Response.
func (a *Accumulator) Interarrival() stats.Summary { return a.gaps.Summary() }

// SizeResponseCorrelation quantifies §III-C's observation that response
// times follow request sizes: the Pearson correlation (stats.Correlation)
// between the size and response time of every replayed request.
func (a *Accumulator) SizeResponseCorrelation() float64 { return a.corr.Value() }

// GapDispersion returns the inter-arrival index of dispersion,
// bit-identical to stats.IndexOfDispersion over the same gap sequence.
func (a *Accumulator) GapDispersion() float64 { return a.gaps.IndexOfDispersion() }

// Report bundles the accumulated characterization. Response and
// Interarrival are exact below the retention cap and bounded-memory
// estimates past it.
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
