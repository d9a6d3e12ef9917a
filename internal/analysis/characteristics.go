package analysis

import "fmt"

// Finding is the verdict on one of the paper's six Characteristics,
// evaluated over a set of traces.
type Finding struct {
	ID       int
	Claim    string
	Holds    bool
	Evidence string
}

// TraceSummary is the per-trace evidence the Characteristics are judged
// from: one Table III row, one Table IV row, and the Figs. 4–7 histograms.
// Accumulator.Summary builds it, whether the accumulator drained a stream
// (AccumulateStream) or a materialized trace (Of).
type TraceSummary struct {
	Size   SizeStats
	Timing TimingStats
	Dists  Distributions
}

// EvaluateCharacteristicsFrom checks the paper's six Characteristics (§III)
// against per-trace summaries of the individual-application traces. The
// traces must have been replayed (timestamps filled) for Characteristics 3
// and 4.
func EvaluateCharacteristicsFrom(rows []TraceSummary) []Finding {
	n := len(rows)
	sizeStats := make([]SizeStats, n)
	timingStats := make([]TimingStats, n)
	dists := make([]Distributions, n)
	for i, r := range rows {
		sizeStats[i] = r.Size
		timingStats[i] = r.Timing
		dists[i] = r.Dists
	}

	var out []Finding

	// Characteristic 1: most applications are write-dominant; in 15/18
	// traces writes are 52.8%–99.9% of requests, 6 above 90%.
	writeDominant, above90 := 0, 0
	for _, s := range sizeStats {
		if s.WriteReqPct >= 50 {
			writeDominant++
		}
		if s.WriteReqPct > 90 {
			above90++
		}
	}
	out = append(out, Finding{
		ID:    1,
		Claim: "Most smartphone applications are write-dominant",
		Holds: writeDominant >= (n*3)/4,
		Evidence: fmt.Sprintf("%d/%d traces write-dominant, %d above 90%% writes",
			writeDominant, n, above90),
	})

	// Characteristic 2: small single-page (4 KB) requests are the majority
	// bucket in most applications.
	p4Major := 0
	for _, d := range dists {
		fr := d.Size.Fractions()
		p4 := fr[0]
		isLargest := true
		for _, f := range fr[1:] {
			if f > p4 {
				isLargest = false
				break
			}
		}
		if isLargest && p4 > 0.40 {
			p4Major++
		}
	}
	out = append(out, Finding{
		ID:       2,
		Claim:    "Single-page (4 KB) requests dominate most applications",
		Holds:    p4Major >= (n*3)/4,
		Evidence: fmt.Sprintf("%d/%d traces have 4 KB as the dominant size bucket", p4Major, n),
	})

	// Characteristic 3: most requests are served immediately on arrival.
	highNoWait := 0
	for _, t := range timingStats {
		if t.NoWaitPct >= 63 {
			highNoWait++
		}
	}
	out = append(out, Finding{
		ID:       3,
		Claim:    "Most requests can be served immediately once they arrive",
		Holds:    highNoWait >= (n*2)/3,
		Evidence: fmt.Sprintf("%d/%d traces serve >=63%% of requests with no wait", highNoWait, n),
	})

	// Characteristic 4: low-rate applications pay power-mode wake-ups,
	// visible as higher mean service times than high-rate applications.
	var lowRateServ, highRateServ, lowN, highN float64
	for _, t := range timingStats {
		if t.ArrivalRate < 1 {
			lowRateServ += t.MeanServMs
			lowN++
		} else if t.ArrivalRate > 5 {
			highRateServ += t.MeanServMs
			highN++
		}
	}
	holds4 := lowN > 0 && highN > 0 && lowRateServ/lowN > highRateServ/highN
	out = append(out, Finding{
		ID:    4,
		Claim: "Mode switching inflates response times of low-rate applications",
		Holds: holds4,
		Evidence: fmt.Sprintf("mean service %.2f ms (<1 req/s apps) vs %.2f ms (>5 req/s apps)",
			safeDiv(lowRateServ, lowN), safeDiv(highRateServ, highN)),
	})

	// Characteristic 5: localities are weak; spatial below temporal.
	weakSpatial, spatialBelowTemporal := 0, 0
	for _, t := range timingStats {
		if t.SpatialPct < 48 {
			weakSpatial++
		}
		if t.SpatialPct < t.TemporalPct {
			spatialBelowTemporal++
		}
	}
	out = append(out, Finding{
		ID:    5,
		Claim: "Localities are weak; spatial locality below temporal locality",
		Holds: weakSpatial == n && spatialBelowTemporal >= (n*2)/3,
		Evidence: fmt.Sprintf("%d/%d spatial localities below 48%%; spatial < temporal in %d/%d",
			weakSpatial, n, spatialBelowTemporal, n),
	})

	// Characteristic 6: inter-arrival times are long — most apps average
	// at least 200 ms, and in many traces >20% of gaps exceed 16 ms.
	longMean, fatTail := 0, 0
	for i, t := range timingStats {
		if t.ArrivalRate > 0 && 1000/t.ArrivalRate >= 200 {
			longMean++
		}
		fr := dists[i].Interarrival.Fractions()
		if fr[len(fr)-1] > 0.20 {
			fatTail++
		}
	}
	out = append(out, Finding{
		ID:    6,
		Claim: "Average request inter-arrival times are long in most applications",
		Holds: longMean >= n/2,
		Evidence: fmt.Sprintf("%d/%d traces average >=200 ms between requests; %d/%d have >20%% of gaps above 16 ms",
			longMean, n, fatTail, n),
	})

	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
